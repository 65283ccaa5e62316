//! The persistent binary trace corpus cache.
//!
//! The paper's methodology captured each program's trace once (under the
//! *shade* simulator) and replayed it for every predictor sweep. This
//! module gives the synthetic pipeline the same property: the first time
//! a `(benchmark, events)` trace is needed, the generator pass is teed
//! through the IBPB binary writer (see [`ibp_trace::binary`]) into a
//! segment file under `results/.cache/traces/v<schema>/`; every later
//! use — materialised or streamed, any scheduling mode, any process —
//! bulk-decodes the segment instead of re-running the RNG + zipf
//! hierarchy walk. Streamed sub-group passes collapse to independent
//! cursors over the same file.
//!
//! # Keying and eviction
//!
//! A segment is named `<benchmark>-<events>-<fingerprint>.ibpb`, where
//! the fingerprint is [`ibp_workload::ProgramConfig::fingerprint`] —
//! a stable hash of `GENERATOR_VERSION` plus every generator parameter.
//! Any calibration or model change moves the fingerprint, so stale
//! segments can never be replayed; same-key segments with old
//! fingerprints are deleted when the new one is published. Stale schema
//! version directories (`v*` siblings) are evicted wholesale, and
//! segments are published by atomic temp-file + rename so concurrent
//! processes never observe a half-written file.
//!
//! # Correctness
//!
//! Replay is byte-identical by construction: the writer drains the very
//! generator source the consumer would have used, the IBPB codec
//! round-trips events and counters exactly, and chunk boundaries carry no
//! meaning under the [`ibp_trace::EventSource`] contract. Segments are verified
//! (length, counts, checksum, per-record structure) once per process
//! before first use; corrupt files are evicted with a warning and
//! regenerated — never a panic, never a silently wrong replay. If the
//! cache directory is unusable the caller falls back to direct
//! generation.
//!
//! Every segment function takes the corpus root as an argument, and a
//! [`Suite`](crate::Suite) carries its own. [`default_corpus`] engages
//! `$IBP_RESULTS/.cache/traces` for traces of [`MIN_CACHE_EVENTS`] events
//! or more — below that, generation is cheaper than the I/O bookkeeping,
//! and the repo's many tiny test suites must not write cache files into
//! working directories. Tests pass a scratch root instead.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ibp_obs as obs;
use ibp_trace::binary::{verify_binary, write_binary_source, BinarySource};
use ibp_trace::{collect_source, Trace};
use ibp_workload::Benchmark;

/// Bump when the segment layout or naming changes; older version
/// directories are deleted on first use.
const TRACE_SCHEMA_VERSION: u32 = 1;

/// Smallest per-benchmark event count the default corpus engages for.
pub const MIN_CACHE_EVENTS: u64 = 50_000;

/// The corpus root an `events`-long trace uses by default:
/// `$IBP_RESULTS/.cache/traces` at [`MIN_CACHE_EVENTS`] events or more,
/// `None` (generate directly) below that.
#[must_use]
pub fn default_corpus(events: u64) -> Option<PathBuf> {
    (events >= MIN_CACHE_EVENTS).then(|| obs::knobs().results.join(".cache").join("traces"))
}

struct Counters {
    hits: Arc<obs::metrics::Counter>,
    misses: Arc<obs::metrics::Counter>,
    bytes_read: Arc<obs::metrics::Counter>,
    bytes_written: Arc<obs::metrics::Counter>,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        hits: obs::metrics::counter("trace_cache.hits"),
        misses: obs::metrics::counter("trace_cache.misses"),
        bytes_read: obs::metrics::counter("trace_cache.bytes_read"),
        bytes_written: obs::metrics::counter("trace_cache.bytes_written"),
    })
}

/// Snapshot of the process-wide trace-cache counters. A *hit* is a trace
/// request served from a verified segment file; a *miss* generated (and
/// published) the segment first. Byte counters cover segment I/O in both
/// directions, verification reads included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Requests served from an existing verified segment.
    pub hits: u64,
    /// Requests that had to generate and publish the segment.
    pub misses: u64,
    /// Bytes read from segment files (verification + replay).
    pub bytes_read: u64,
    /// Bytes written publishing new segments.
    pub bytes_written: u64,
}

impl TraceCacheStats {
    /// The counter deltas since an earlier snapshot.
    #[must_use]
    pub fn since(self, earlier: TraceCacheStats) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    /// Hits as a percentage of all requests (0 when there were none).
    #[must_use]
    pub fn hit_rate_pct(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups > 0 {
            100.0 * self.hits as f64 / lookups as f64
        } else {
            0.0
        }
    }
}

/// The current process-wide counter values.
#[must_use]
pub fn stats() -> TraceCacheStats {
    let c = counters();
    TraceCacheStats {
        hits: c.hits.get(),
        misses: c.misses.get(),
        bytes_read: c.bytes_read.get(),
        bytes_written: c.bytes_written.get(),
    }
}

fn version_dir(root: &Path) -> PathBuf {
    root.join(format!("v{TRACE_SCHEMA_VERSION}"))
}

/// Deletes `v*` sibling directories of other schema versions. Their
/// segments cannot be trusted to mean the same thing, and leaving them
/// around would grow the cache without bound across schema bumps.
fn evict_stale(root: &Path) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    let keep = format!("v{TRACE_SCHEMA_VERSION}");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('v') && name != keep && fs::remove_dir_all(entry.path()).is_ok() {
            eprintln!("note: evicted stale trace cache {}", entry.path().display());
        }
    }
}

fn segment_file_name(benchmark: Benchmark, events: u64) -> String {
    let fingerprint = benchmark.config().fingerprint();
    format!("{}-{events}-{fingerprint:016x}.ibpb", benchmark.name())
}

/// Serialises generate/verify work per segment path: concurrent requests
/// for the same trace block until the first one has published (instead of
/// racing duplicate generator passes).
fn key_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(path.to_owned())
        .or_default()
        .clone()
}

/// Segment files already verified (or written) by this process; replays
/// of these skip the per-process verification pass.
fn verified() -> &'static Mutex<HashSet<PathBuf>> {
    static VERIFIED: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    VERIFIED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Full checksum + structure verification of one segment file; returns
/// the file length on success.
fn verify_file(path: &Path) -> Result<u64, String> {
    if let Some(e) = crate::faults::io_error("trace_cache.read") {
        return Err(e.to_string());
    }
    let file = fs::File::open(path).map_err(|e| e.to_string())?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    verify_binary(file).map_err(|e| e.to_string())?;
    Ok(len)
}

/// Generates the benchmark trace into `tmp`, fsyncing before returning
/// the byte count.
fn write_segment(benchmark: Benchmark, events: u64, tmp: &Path) -> Result<u64, String> {
    let mut file = fs::File::create(tmp).map_err(|e| e.to_string())?;
    if let Some(e) = crate::faults::io_error("trace_cache.write") {
        return Err(e.to_string());
    }
    let mut source = benchmark.source(events);
    let bytes = write_binary_source(&mut source, &mut file).map_err(|e| e.to_string())?;
    file.sync_all().map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Removes same-`(benchmark, events)` segments whose fingerprint differs
/// from the freshly published `keep` — their generator parameters are
/// stale and they can never be requested again.
fn remove_stale_fingerprints(dir: &Path, benchmark: Benchmark, events: u64, keep: &Path) {
    let prefix = format!("{}-{events}-", benchmark.name());
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(&prefix)
            && name.ends_with(".ibpb")
            && entry.path() != keep
            && fs::remove_file(entry.path()).is_ok()
        {
            eprintln!(
                "note: evicted stale-fingerprint trace segment {}",
                entry.path().display()
            );
        }
    }
}

/// Ensures a verified segment for `(benchmark, events)` exists under
/// `root`, generating it on a miss. `None` when the cache directory is
/// unusable (the caller falls back to direct generation).
fn ensure_segment_at(root: &Path, benchmark: Benchmark, events: u64) -> Option<PathBuf> {
    let dir = version_dir(root);
    let path = dir.join(segment_file_name(benchmark, events));
    let lock = key_lock(&path);
    let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);

    if verified()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .contains(&path)
    {
        counters().hits.incr();
        return Some(path);
    }
    evict_stale(root);
    if path.exists() {
        match verify_file(&path) {
            Ok(len) => {
                counters().hits.incr();
                counters().bytes_read.add(len);
                verified()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(path.clone());
                return Some(path);
            }
            Err(e) => {
                obs::warn!(
                    "trace cache: evicting corrupt segment {}: {e}",
                    path.display()
                );
                obs::event!("degraded", site = "trace_cache.read", detail = e.as_str());
                let _ = fs::remove_file(&path);
            }
        }
    }

    // Miss: run the generator once, teed through the binary writer, and
    // publish atomically so concurrent readers never see a partial file.
    counters().misses.incr();
    if let Err(e) = fs::create_dir_all(&dir) {
        obs::warn!("trace cache: cannot create {}: {e}", dir.display());
        return None;
    }
    let tmp = dir.join(format!(
        "{}.tmp.{}",
        segment_file_name(benchmark, events),
        std::process::id()
    ));
    let mut span = obs::span!(
        "trace_segment_write",
        benchmark = benchmark.name(),
        events = events
    );
    let bytes = match write_segment(benchmark, events, &tmp) {
        Ok(bytes) => bytes,
        Err(e) => {
            obs::warn!("trace cache: cannot write {}: {e}", tmp.display());
            obs::event!("degraded", site = "trace_cache.write", detail = e.as_str());
            let _ = fs::remove_file(&tmp);
            return None;
        }
    };
    let published = match crate::faults::io_error("trace_cache.rename") {
        Some(e) => Err(e),
        None => fs::rename(&tmp, &path),
    };
    if let Err(e) = published {
        obs::warn!("trace cache: cannot publish {}: {e}", path.display());
        let detail = e.to_string();
        obs::event!("degraded", site = "trace_cache.rename", detail = detail.as_str());
        let _ = fs::remove_file(&tmp);
        return None;
    }
    span.note("bytes", bytes);
    remove_stale_fingerprints(&dir, benchmark, events, &path);
    counters().bytes_written.add(bytes);
    // We wrote and fsynced it ourselves; no verification pass needed.
    verified()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(path.clone());
    Some(path)
}

fn open_segment(path: &Path) -> Result<BinarySource<fs::File>, String> {
    let file = fs::File::open(path).map_err(|e| e.to_string())?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    let source = BinarySource::new(file).map_err(|e| e.to_string())?;
    counters().bytes_read.add(len);
    Ok(source)
}

/// A fresh replay cursor over the default corpus's segment for
/// `(benchmark, events)` ([`default_corpus`]). `None` when the default
/// corpus does not engage at this event count or is unusable; callers
/// fall back to direct generation.
#[must_use]
pub fn source_for(benchmark: Benchmark, events: u64) -> Option<BinarySource<fs::File>> {
    source_at(&default_corpus(events)?, benchmark, events)
}

/// A fresh replay cursor over the segment for `(benchmark, events)` in
/// the corpus at `root`, generating the segment on a miss — an
/// independent [`ibp_trace::EventSource`], event- and counter-identical
/// to a generator pass. `None` when the corpus is unusable; callers fall
/// back to direct generation.
#[must_use]
pub fn source_at(root: &Path, benchmark: Benchmark, events: u64) -> Option<BinarySource<fs::File>> {
    let path = ensure_segment_at(root, benchmark, events)?;
    match open_segment(&path) {
        Ok(source) => Some(source),
        Err(e) => {
            obs::warn!("trace cache: cannot replay {}: {e}", path.display());
            None
        }
    }
}

/// The materialised trace for `(benchmark, events)`, decoded from the
/// segment in the corpus at `root`. Same `None` semantics as
/// [`source_at`].
#[must_use]
pub fn trace_at(root: &Path, benchmark: Benchmark, events: u64) -> Option<Trace> {
    let mut source = source_at(root, benchmark, events)?;
    match collect_source(&mut source) {
        Ok(trace) => Some(trace),
        Err(e) => {
            obs::warn!("trace cache: replay of {benchmark} failed, regenerating: {e}");
            None
        }
    }
}

/// Forgets every segment this process has verified (or written), forcing
/// the next request for each to re-verify the file on disk — what a fresh
/// process would do. Fault harnesses use it to re-exercise the
/// verification path without spawning a process.
pub fn forget_verified() {
    verified()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ibp-trace-cache-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const EVENTS: u64 = 2_000;

    #[test]
    fn miss_generates_then_hit_replays_identically() {
        let _guard = crate::test_guard();
        let root = scratch_root("roundtrip");
        let before = stats();
        let path = ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("segment");
        assert!(path.exists());
        let after_miss = stats().since(before);
        assert_eq!(after_miss.misses, 1);
        assert!(after_miss.bytes_written > 0);

        let again = ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("segment");
        assert_eq!(again, path);
        assert_eq!(stats().since(before).hits, 1);

        let mut source = open_segment(&path).expect("open");
        let replay = collect_source(&mut source).expect("replay");
        let direct = Benchmark::Ixx.trace_with_len(EVENTS);
        assert_eq!(replay.name(), direct.name());
        assert_eq!(replay.events(), direct.events());
        assert_eq!(replay.instructions(), direct.instructions());
        assert_eq!(replay.cond_count(), direct.cond_count());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_segment_is_evicted_and_regenerated() {
        let _guard = crate::test_guard();
        let root = scratch_root("corrupt");
        let path = ensure_segment_at(&root, Benchmark::Gcc, EVENTS).expect("segment");
        // Garble one payload byte, then pretend we are a new process.
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("garble");
        forget_verified();

        let before = stats();
        let regenerated = ensure_segment_at(&root, Benchmark::Gcc, EVENTS).expect("segment");
        assert_eq!(regenerated, path);
        assert_eq!(stats().since(before).misses, 1, "verify failed -> regenerate");
        let mut source = open_segment(&path).expect("open");
        let replay = collect_source(&mut source).expect("replay after regeneration");
        assert_eq!(replay.events(), Benchmark::Gcc.trace_with_len(EVENTS).events());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_segment_is_evicted_and_regenerated() {
        let _guard = crate::test_guard();
        let root = scratch_root("truncated");
        let path = ensure_segment_at(&root, Benchmark::Perl, EVENTS).expect("segment");
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        forget_verified();

        let before = stats();
        ensure_segment_at(&root, Benchmark::Perl, EVENTS).expect("segment");
        assert_eq!(stats().since(before).misses, 1);
        verify_file(&path).expect("regenerated segment verifies");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_schema_and_fingerprint_segments_are_evicted() {
        let _guard = crate::test_guard();
        let root = scratch_root("evict");
        let stale_dir = root.join("v0");
        fs::create_dir_all(&stale_dir).expect("mk stale");
        fs::write(stale_dir.join("junk.ibpb"), b"junk").expect("stale file");
        let dir = version_dir(&root);
        fs::create_dir_all(&dir).expect("mkdir");
        let stale_fp = dir.join(format!("{}-{EVENTS}-{:016x}.ibpb", Benchmark::Ixx.name(), 0));
        fs::write(&stale_fp, b"old fingerprint").expect("stale fp");

        ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("segment");
        assert!(!stale_dir.exists(), "v0 evicted");
        assert!(!stale_fp.exists(), "old fingerprint evicted");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn streamed_cursors_are_independent() {
        let _guard = crate::test_guard();
        let root = scratch_root("cursors");
        let path = ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("segment");
        let mut a = open_segment(&path).expect("open a");
        let mut b = open_segment(&path).expect("open b");
        let ta = collect_source(&mut a).expect("a");
        let tb = collect_source(&mut b).expect("b");
        assert_eq!(ta.events(), tb.events());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_read_fault_evicts_and_regenerates() {
        let _guard = crate::test_guard();
        let root = scratch_root("read-fault");
        let path = ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("segment");
        forget_verified();
        let armed = crate::faults::arm("trace_cache.read@1").unwrap();
        let before = stats();
        let again = ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("segment");
        drop(armed);
        assert_eq!(again, path);
        assert_eq!(stats().since(before).misses, 1, "read fault -> evict + regenerate");
        verify_file(&path).expect("regenerated segment verifies");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_write_fault_cleans_up_and_falls_back() {
        let _guard = crate::test_guard();
        let root = scratch_root("write-fault");
        let armed = crate::faults::arm("trace_cache.write@1").unwrap();
        assert!(
            ensure_segment_at(&root, Benchmark::Ixx, EVENTS).is_none(),
            "write fault -> caller falls back to direct generation"
        );
        drop(armed);
        if let Ok(entries) = fs::read_dir(version_dir(&root)) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                assert!(
                    !name.to_string_lossy().contains(".tmp."),
                    "temp file left behind: {name:?}"
                );
            }
        }
        ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("clean retry publishes");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_rename_fault_cleans_up_and_falls_back() {
        let _guard = crate::test_guard();
        let root = scratch_root("rename-fault");
        let armed = crate::faults::arm("trace_cache.rename@1").unwrap();
        assert!(ensure_segment_at(&root, Benchmark::Ixx, EVENTS).is_none());
        drop(armed);
        if let Ok(entries) = fs::read_dir(version_dir(&root)) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                assert!(
                    !name.to_string_lossy().contains(".tmp."),
                    "temp file left behind: {name:?}"
                );
            }
        }
        ensure_segment_at(&root, Benchmark::Ixx, EVENTS).expect("clean retry publishes");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn default_corpus_engages_at_the_threshold() {
        // Tiny suites stay out of the cache.
        assert_eq!(default_corpus(MIN_CACHE_EVENTS - 1), None);
        let root = default_corpus(MIN_CACHE_EVENTS).expect("engaged at the threshold");
        assert!(root.ends_with(".cache/traces"), "{}", root.display());
    }
}
