//! The persistent cross-process result cache.
//!
//! The engine's memo cache (see [`crate::engine`]) already guarantees a
//! `(config, benchmark, events, warmup)` pair is simulated at most once
//! *per process*. This module extends that guarantee across processes: on
//! first use the engine loads previously published results from
//! `results/.cache/v<schema>/engine.tsv`, and measurement binaries persist
//! the merged cache back on exit. A second `repro_all` run then simulates
//! nothing at all — every lookup is a persistent hit.
//!
//! Correctness rests on the same purity argument as the memo cache: traces
//! are pure functions of `(benchmark, events)` and predictors pure
//! functions of the config key, so a stored `RunStats` is exact, not an
//! approximation. The schema version directory exists for the *format*,
//! not the results: when the TSV layout changes, stale `v*` directories
//! are evicted wholesale on load.
//!
//! `IBP_CACHE=0` disables both load and save (invalid values warn and
//! default to enabled, like the other `IBP_*` knobs). The cache lives
//! under the results directory (`IBP_RESULTS`, default `results/`), so
//! redirecting results also isolates the cache.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ibp_workload::Benchmark;

use crate::run::RunStats;

/// Full identity of one memoized run. The trace is a pure function of
/// `(benchmark, events)`, and the predictor a pure function of the config
/// key, so this tuple determines the `RunStats` exactly.
pub(crate) type CacheKey = (String, Benchmark, u64, u64);

/// Bump when the TSV layout (or the meaning of any field) changes; older
/// version directories are deleted on load.
const SCHEMA_VERSION: u32 = 1;

const FILE_HEADER: &str = "# ibp engine cache: key\tbenchmark\tevents\twarmup\tindirect\tmispredicted";

/// Whether the persistent cache is on: `IBP_CACHE` parsed once with
/// warn-and-default (unset or invalid mean enabled; only `0` disables).
pub(crate) fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("IBP_CACHE") {
        Ok(raw) => match raw.as_str() {
            "0" => false,
            "1" => true,
            _ => {
                eprintln!(
                    "warning: ignoring invalid IBP_CACHE={raw:?} \
                     (expected 0 or 1); caching stays enabled"
                );
                true
            }
        },
        Err(_) => true,
    })
}

fn results_dir() -> PathBuf {
    std::env::var("IBP_RESULTS")
        .unwrap_or_else(|_| "results".into())
        .into()
}

fn cache_root() -> PathBuf {
    results_dir().join(".cache")
}

fn version_dir(root: &Path) -> PathBuf {
    root.join(format!("v{SCHEMA_VERSION}"))
}

/// Deletes `v*` sibling directories of other schema versions. Their
/// entries cannot be trusted to mean the same thing, and leaving them
/// around would grow the cache without bound across schema bumps.
fn evict_stale(root: &Path) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    let keep = format!("v{SCHEMA_VERSION}");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('v') && name != keep && fs::remove_dir_all(entry.path()).is_ok() {
            eprintln!("note: evicted stale result cache {}", entry.path().display());
        }
    }
}

fn parse_line(line: &str) -> Option<(CacheKey, RunStats)> {
    let mut fields = line.split('\t');
    let key = fields.next()?.to_string();
    let benchmark = Benchmark::from_name(fields.next()?)?;
    let events = fields.next()?.parse().ok()?;
    let warmup = fields.next()?.parse().ok()?;
    let indirect = fields.next()?.parse().ok()?;
    let mispredicted = fields.next()?.parse().ok()?;
    if fields.next().is_some() {
        return None;
    }
    Some((
        (key, benchmark, events, warmup),
        RunStats {
            indirect,
            mispredicted,
        },
    ))
}

/// Loads every entry stored under `root` (evicting stale schema versions
/// first). Missing files and malformed lines load as nothing — a corrupt
/// cache degrades to a cold one, never to an error.
fn load_from(root: &Path) -> HashMap<CacheKey, RunStats> {
    evict_stale(root);
    let Ok(text) = fs::read_to_string(version_dir(root).join("engine.tsv")) else {
        return HashMap::new();
    };
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(parse_line)
        .collect()
}

/// Loads the persistent cache from the environment-selected results
/// directory; empty when disabled.
pub(crate) fn load() -> HashMap<CacheKey, RunStats> {
    if !enabled() {
        return HashMap::new();
    }
    load_from(&cache_root())
}

/// Writes `entries` merged with whatever is already on disk (ours win on
/// key collisions — the values are deterministic, so collisions agree
/// anyway), atomically via a temp file + rename. Returns the merged entry
/// count.
fn save_to(root: &Path, entries: &[(CacheKey, RunStats)]) -> io::Result<usize> {
    let dir = version_dir(root);
    fs::create_dir_all(&dir)?;
    let mut merged = load_from(root);
    for (key, stats) in entries {
        merged.insert(key.clone(), *stats);
    }
    let mut rows: Vec<String> = merged
        .iter()
        .filter(|((key, ..), _)| !key.contains('\t') && !key.contains('\n'))
        .map(|((key, b, events, warmup), stats)| {
            format!(
                "{key}\t{}\t{events}\t{warmup}\t{}\t{}",
                b.name(),
                stats.indirect,
                stats.mispredicted
            )
        })
        .collect();
    rows.sort_unstable();
    let tmp = dir.join("engine.tsv.tmp");
    let published = write_and_publish(&tmp, &dir, &rows);
    if published.is_err() {
        // A failed write or rename must not leave the half-written temp
        // file behind — the previously published engine.tsv (if any)
        // stays the newest complete snapshot.
        let _ = fs::remove_file(&tmp);
    }
    published.map(|()| rows.len())
}

/// Writes `rows` to `tmp` and atomically publishes it as `engine.tsv`.
/// Split out so `save_to` can clean up the temp file on any failure.
fn write_and_publish(tmp: &Path, dir: &Path, rows: &[String]) -> io::Result<()> {
    let mut file = fs::File::create(tmp)?;
    if let Some(e) = crate::faults::io_error("cache.write") {
        return Err(e);
    }
    writeln!(file, "{FILE_HEADER}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    file.sync_all()?;
    drop(file);
    if let Some(e) = crate::faults::io_error("cache.rename") {
        return Err(e);
    }
    fs::rename(tmp, dir.join("engine.tsv"))
}

/// Persists `entries` into the environment-selected results directory;
/// no-op (returning 0) when disabled.
pub(crate) fn save(entries: &[(CacheKey, RunStats)]) -> io::Result<usize> {
    if !enabled() {
        return Ok(0);
    }
    save_to(&cache_root(), entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ibp-cache-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entries() -> Vec<(CacheKey, RunStats)> {
        vec![
            (
                ("btb-2bc".into(), Benchmark::Ixx, 6_000, 0),
                RunStats {
                    indirect: 6_000,
                    mispredicted: 1_234,
                },
            ),
            (
                ("two-level|p=4".into(), Benchmark::Xlisp, 6_000, 500),
                RunStats {
                    indirect: 5_500,
                    mispredicted: 321,
                },
            ),
        ]
    }

    #[test]
    fn round_trips_entries_through_disk() {
        let _guard = crate::test_guard();
        let root = scratch_root("roundtrip");
        let entries = sample_entries();
        assert_eq!(save_to(&root, &entries).expect("save"), 2);
        let loaded = load_from(&root);
        assert_eq!(loaded.len(), 2);
        for (key, stats) in &entries {
            assert_eq!(loaded.get(key), Some(stats));
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_merges_with_existing_disk_contents() {
        let _guard = crate::test_guard();
        let root = scratch_root("merge");
        let entries = sample_entries();
        save_to(&root, &entries[..1]).expect("first save");
        // A "second process" saves a disjoint entry; the first must survive.
        save_to(&root, &entries[1..]).expect("second save");
        let loaded = load_from(&root);
        assert_eq!(loaded.len(), 2, "merge keeps both processes' entries");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_schema_directories_are_evicted() {
        let _guard = crate::test_guard();
        let root = scratch_root("evict");
        let stale = root.join("v0");
        fs::create_dir_all(&stale).expect("mk stale");
        fs::write(stale.join("engine.tsv"), "junk\n").expect("stale file");
        save_to(&root, &sample_entries()).expect("save");
        let _ = load_from(&root);
        assert!(!stale.exists(), "v0 evicted");
        assert!(version_dir(&root).join("engine.tsv").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_write_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::test_guard();
        let root = scratch_root("write-fault");
        let entries = sample_entries();
        save_to(&root, &entries[..1]).expect("clean first save");
        crate::faults::override_spec(Some("cache.write@1")).unwrap();
        let err = save_to(&root, &entries[1..]).expect_err("injected write fault");
        crate::faults::override_spec(None).unwrap();
        assert!(err.to_string().contains("injected fault: cache.write"), "{err}");
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        let loaded = load_from(&root);
        assert_eq!(loaded.len(), 1, "previous snapshot survives a failed save");
        assert_eq!(loaded.get(&entries[0].0), Some(&entries[0].1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_rename_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::test_guard();
        let root = scratch_root("rename-fault");
        let entries = sample_entries();
        save_to(&root, &entries[..1]).expect("clean first save");
        crate::faults::override_spec(Some("cache.rename@1")).unwrap();
        let err = save_to(&root, &entries).expect_err("injected rename fault");
        crate::faults::override_spec(None).unwrap();
        assert!(err.to_string().contains("injected fault: cache.rename"), "{err}");
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        assert_eq!(load_from(&root).len(), 1, "old snapshot intact");
        // A clean retry after the fault publishes normally.
        assert_eq!(save_to(&root, &entries).expect("retry"), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_lines_degrade_to_a_cold_cache() {
        let _guard = crate::test_guard();
        let root = scratch_root("malformed");
        let dir = version_dir(&root);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(
            dir.join("engine.tsv"),
            format!(
                "{FILE_HEADER}\n\
                 not-enough-fields\t3\n\
                 key\tno-such-benchmark\t1\t0\t1\t0\n\
                 btb\tixx\t100\t0\t100\t7\n"
            ),
        )
        .expect("write");
        let loaded = load_from(&root);
        assert_eq!(loaded.len(), 1, "only the well-formed line survives");
        assert_eq!(
            loaded[&("btb".into(), Benchmark::Ixx, 100, 0)],
            RunStats {
                indirect: 100,
                mispredicted: 7
            }
        );
        let _ = fs::remove_dir_all(&root);
    }
}
