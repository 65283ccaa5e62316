//! End-to-end tests of the command-line tools: `export_trace` piped into
//! `simulate_trace`, and a figure binary's CSV output directory.

use std::io::Write;
use std::process::Command;

fn export(benchmark: &str, events: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_export_trace"))
        .args([benchmark, events])
        .output()
        .expect("run export_trace");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn simulate(trace_path: &str, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate_trace"))
        .arg(trace_path)
        .args(args)
        .output()
        .expect("run simulate_trace");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp_trace(benchmark: &str, events: &str) -> std::path::PathBuf {
    let data = export(benchmark, events);
    let path = std::env::temp_dir().join(format!(
        "ibp-cli-test-{benchmark}-{events}-{}.ibpt",
        std::process::id()
    ));
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(&data))
        .expect("write temp trace");
    path
}

#[test]
fn export_emits_valid_ibpt() {
    let data = export("ixx", "2000");
    let text = String::from_utf8(data).expect("utf8");
    assert!(text.starts_with("ibpt 1"));
    assert!(text.contains("name ixx"));
    assert_eq!(text.lines().filter(|l| l.starts_with("i ")).count(), 2000);
}

#[test]
fn export_rejects_unknown_benchmark() {
    let out = Command::new(env!("CARGO_BIN_EXE_export_trace"))
        .arg("nonesuch")
        .output()
        .expect("run export_trace");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn simulate_runs_practical_predictor() {
    let path = temp_trace("ixx", "3000");
    let (stdout, _, ok) = simulate(
        path.to_str().unwrap(),
        &[
            "--predictor",
            "practical",
            "--path",
            "3",
            "--entries",
            "1024",
            "--ways",
            "4",
        ],
    );
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    assert!(stdout.contains("3000 indirect branches"), "{stdout}");
    assert!(stdout.contains("misprediction:"), "{stdout}");
}

/// The percentages printed after `label` on the line that starts with it.
fn percents(stdout: &str, label: &str) -> Vec<f64> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no {label:?} line in {stdout}"));
    line.split_whitespace()
        .filter_map(|w| w.trim_end_matches(',').strip_suffix('%'))
        .map(|p| p.parse().expect("percentage"))
        .collect()
}

#[test]
fn simulate_classify_and_per_site() {
    // 256 entries are few enough for ixx that the table organisations
    // mispredict differently.
    let path = temp_trace("ixx", "5000");
    for extra in [
        &[][..],
        &["--ways", "full"],
        &["--ways", "tagless"],
        &["--predictor", "btb2bc"],
        &["--predictor", "hybrid"],
    ] {
        let mut args = vec!["--classify", "--per-site", "--entries", "256"];
        args.extend_from_slice(extra);
        let (stdout, _, ok) = simulate(path.to_str().unwrap(), &args);
        assert!(ok, "{extra:?}: {stdout}");
        assert!(
            stdout.contains("worst-predicted sites"),
            "{extra:?}: {stdout}"
        );
        // The classes partition the misses of the run the misprediction
        // line reports: they must sum to it within print rounding (each
        // figure is rounded to 0.01 %).
        let total = percents(&stdout, "misprediction:")[0];
        let classes = percents(&stdout, "breakdown:");
        let expected = if extra.contains(&"hybrid") { 2 } else { 3 };
        assert_eq!(classes.len(), expected, "{extra:?}: {stdout}");
        let sum: f64 = classes.iter().sum();
        assert!(
            (sum - total).abs() <= 0.005 * (classes.len() + 1) as f64,
            "{extra:?}: classes sum to {sum}% but the run mispredicts {total}%\n{stdout}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_sweep_prints_all_paths() {
    let path = temp_trace("xlisp", "2000");
    let (stdout, _, ok) = simulate(path.to_str().unwrap(), &["--sweep"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    // 13 sweep rows (p = 0..=12).
    let rows = stdout
        .lines()
        .filter(|l| {
            l.trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
        .count();
    assert!(rows >= 13, "{stdout}");
}

#[test]
fn simulate_reports_usage_on_bad_args() {
    let (_, stderr, ok) = simulate("/nonexistent.ibpt", &["--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn simulate_fails_cleanly_on_missing_file() {
    let (_, stderr, ok) = simulate("/nonexistent.ibpt", &[]);
    assert!(!ok);
    assert!(stderr.contains("cannot open"), "{stderr}");
}

/// A figure run replaces its own numbered tables: a `NN_*.csv` an older
/// run left in the figure's directory is removed, anything else stays.
#[test]
fn figure_run_removes_stale_numbered_tables() {
    let root = std::env::temp_dir().join(format!("ibp-cli-stale-{}", std::process::id()));
    let dir = root.join("fig2");
    std::fs::create_dir_all(&dir).expect("temp results dir");
    for name in ["07_old_title.csv", "sample.ibpt", "notes.csv"] {
        std::fs::write(dir.join(name), "x\n").expect("seed file");
    }

    let out = Command::new(env!("CARGO_BIN_EXE_fig2_btb"))
        .env("IBP_EVENTS", "2000")
        .env("IBP_RESULTS", &root)
        .output()
        .expect("run fig2_btb");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read fig2 dir")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    std::fs::remove_dir_all(&root).ok();
    assert!(!names.contains(&"07_old_title.csv".to_owned()), "{names:?}");
    assert!(names.contains(&"sample.ibpt".to_owned()), "{names:?}");
    assert!(names.contains(&"notes.csv".to_owned()), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("00_")), "{names:?}");
}
