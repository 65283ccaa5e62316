//! Guards on the checked-in paper record: the CSVs under `results/` must
//! come from a run at the canonical trace length, each directory must hold
//! exactly the tables a run numbers `00`..`n-1`, and the headline tables
//! in README.md and EXPERIMENTS.md must show the numbers those CSVs hold.
//!
//! The checks read files only; they never simulate. Regenerate the record
//! with `IBP_EVENTS=120000 cargo run --release -p ibp-bench --bin repro_all`
//! and copy the `summary` figures into the two docs.

use std::fs;
use std::path::{Path, PathBuf};

/// The `IBP_EVENTS` every checked-in table is generated at.
const CANONICAL_EVENTS: u64 = 120_000;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Splits one CSV line into fields, honouring double-quoted fields that
/// contain commas (predictor names like `"two-level, 1K 4-way"`).
fn csv_fields(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            _ => fields.last_mut().expect("one field").push(c),
        }
    }
    fields
}

/// The values of column `name` in the CSV at `path`, one per data row.
fn csv_column(path: &Path, name: &str) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let header = csv_fields(lines.next().expect("header row"));
    let col = header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("{}: no {name} column", path.display()));
    lines.map(|l| csv_fields(l)[col].clone()).collect()
}

#[test]
fn table1_2_csvs_are_at_the_canonical_length() {
    let dir = repo_path("results/table1_2");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no CSVs under {}", dir.display());
    for path in files {
        let branches = csv_column(&path, "branches");
        assert!(!branches.is_empty(), "{}: no benchmark rows", path.display());
        for (row, value) in branches.iter().enumerate() {
            assert_eq!(
                value.parse::<u64>().ok(),
                Some(CANONICAL_EVENTS),
                "{} row {row}: not generated at IBP_EVENTS={CANONICAL_EVENTS}",
                path.display()
            );
        }
    }
}

/// Each experiment writes its tables as `00_*.csv`, `01_*.csv`, … in
/// order, so a directory whose prefixes are not exactly `00`..`n-1`, each
/// once, holds a table no current run writes (or lost one it does).
#[test]
fn every_results_dir_numbers_its_csvs_without_gaps_or_repeats() {
    let root = repo_path("results");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("read {}: {e}", root.display()))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "no directories under {}", root.display());
    for dir in dirs {
        let mut prefixes: Vec<String> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| name.ends_with(".csv"))
            .map(|name| name.split('_').next().unwrap_or_default().to_owned())
            .collect();
        prefixes.sort();
        let expected: Vec<String> = (0..prefixes.len()).map(|i| format!("{i:02}")).collect();
        assert_eq!(prefixes, expected, "{}: CSV prefixes", dir.display());
    }
}

/// The `measured` column of the summary CSV, in row order, as the docs
/// print it: two decimals and a percent sign.
fn headline_measured() -> Vec<String> {
    let path = repo_path("results/summary/00_headline_numbers__avg_misprediction.csv");
    csv_column(&path, "measured")
        .iter()
        .map(|v| {
            let value: f64 = v.parse().expect("numeric measured value");
            format!("{value:.2} %")
        })
        .collect()
}

/// The `measured` cells of the first markdown table after `heading`.
fn doc_measured(doc: &str, heading: &str) -> Vec<String> {
    let text = fs::read_to_string(repo_path(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
    let start = text
        .find(heading)
        .unwrap_or_else(|| panic!("{doc}: no {heading:?} section"));
    let cells = |row: &str| -> Vec<String> {
        row.trim()
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let mut rows = text[start..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'));
    let header = cells(rows.next().expect("table header"));
    let col = header
        .iter()
        .position(|h| h == "measured")
        .unwrap_or_else(|| panic!("{doc}: no measured column in {header:?}"));
    rows.skip(1).map(|r| cells(r)[col].clone()).collect()
}

#[test]
fn docs_headline_tables_match_the_summary_csv() {
    let measured = headline_measured();
    assert_eq!(measured.len(), 5, "five headline rows in the summary CSV");
    for (doc, heading) in [
        ("README.md", "## Headline result"),
        ("EXPERIMENTS.md", "## Headline numbers"),
    ] {
        assert_eq!(
            doc_measured(doc, heading),
            measured,
            "{doc}'s headline table disagrees with results/summary"
        );
    }
}
