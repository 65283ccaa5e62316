//! The workspace's environment knobs, resolved once per process.
//!
//! The first call to [`knobs`] reads the six `IBP_*` variables, prints
//! one `warning: ignoring invalid NAME=…` line on stderr for each value
//! it cannot use, and keeps the resulting [`Knobs`] for the rest of the
//! process; nothing else reads them, and the journal header records this
//! very value. [`Knobs::resolve`] is the pure resolver behind it. Unset,
//! empty and whitespace-only values mean the default; a value the knob
//! cannot parse warns and means the default. `IBP_FAULTS` is kept as its
//! raw spec: `ibp_sim::faults`, which registers the sites, parses it and
//! warns through [`resolve_knob`] in the same words.

use std::path::PathBuf;
use std::sync::OnceLock;

use crate::journal::run_id;
use crate::json::Json;

/// How much predictor-internal telemetry a run collects (`IBP_PROBE`).
/// The journal sink carries the level, so a run without a journal never
/// probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePolicy {
    /// No probes (`IBP_PROBE=0` or unset): the hot path pays one branch.
    Off,
    /// Sample snapshots at end-of-warmup and end-of-run, attribute scored
    /// misses per site (`IBP_PROBE=1`).
    On,
    /// Everything `On` does, plus periodic interval snapshots and the
    /// cold/capacity split of no-entry misses (`IBP_PROBE=deep`).
    Deep,
}

impl ProbePolicy {
    /// Whether any probing is active.
    #[must_use]
    pub fn on(self) -> bool {
        self != ProbePolicy::Off
    }

    /// Whether deep (interval + cold/capacity) probing is active.
    #[must_use]
    pub fn deep(self) -> bool {
        self == ProbePolicy::Deep
    }

    /// The `IBP_PROBE` spelling of this level.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProbePolicy::Off => "0",
            ProbePolicy::On => "1",
            ProbePolicy::Deep => "deep",
        }
    }
}

/// Every knob's resolved value. Obtain the process's from [`knobs`].
#[derive(Debug)]
pub struct Knobs {
    /// `IBP_EVENTS`: indirect branches per benchmark trace (default
    /// 120 000).
    pub events: u64,
    /// `IBP_RESULTS`: the root every CSV, trace-cache segment and default
    /// journal lives under (default `results`).
    pub results: PathBuf,
    /// `IBP_LOG`: stderr log level, 0 quiet (default), 1 progress, 2
    /// debug.
    pub log: u8,
    /// `IBP_TRACE`: the journal file, `None` when tracing is off (unset or
    /// `0`). `1` resolves to `<results>/journal/<run-id>.jsonl`; any other
    /// value is the path itself.
    pub trace: Option<PathBuf>,
    /// `IBP_PROBE`: the probe level a journal opened by this process
    /// carries (default off).
    pub probe: ProbePolicy,
    /// `IBP_FAULTS`: the raw fault-injection spec, `None` when unset or
    /// blank.
    pub faults: Option<String>,
}

/// Parses an `IBP_LOG`-style level string. `Ok` is the numeric level;
/// `Err` carries the reason the warning prints for unparseable input
/// (which falls back to level 0).
///
/// # Errors
///
/// Returns the reason when `raw` is not an unsigned integer.
pub fn parse_log_level(raw: &str) -> Result<u8, String> {
    raw.parse::<u8>()
        .map_err(|_| "not an IBP_LOG level".to_string())
}

impl Knobs {
    /// Resolves every knob from `var` (the value of an environment
    /// variable, `None` when unset). Returns the knobs and one warning
    /// line per value that fell back to its default.
    pub fn resolve(var: impl Fn(&str) -> Option<String>) -> (Knobs, Vec<String>) {
        let mut warnings = Vec::new();
        macro_rules! knob {
            ($name:literal, $expected:literal, $default:expr, $parse:expr) => {{
                let (value, warning) = resolve_knob($name, var($name), $expected, $default, $parse);
                warnings.extend(warning);
                value
            }};
        }
        let events = knob!("IBP_EVENTS", "an unsigned integer", 120_000, |raw: &str| {
            raw.parse().map_err(|_| String::new())
        });
        let results = knob!("IBP_RESULTS", "a directory", PathBuf::from("results"), |raw: &str| {
            Ok(PathBuf::from(raw))
        });
        let log = knob!("IBP_LOG", "0, 1 or 2", 0, parse_log_level);
        let trace = knob!("IBP_TRACE", "0, 1 or a journal path", None, |raw: &str| {
            Ok(match raw {
                "0" => None,
                "1" => Some(results.join("journal").join(format!("{}.jsonl", run_id()))),
                path => Some(PathBuf::from(path)),
            })
        });
        let probe = knob!("IBP_PROBE", "0, 1 or \"deep\"", ProbePolicy::Off, |raw: &str| {
            match raw {
                "0" => Ok(ProbePolicy::Off),
                "1" => Ok(ProbePolicy::On),
                "deep" => Ok(ProbePolicy::Deep),
                _ => Err(String::new()),
            }
        });
        let faults = knob!("IBP_FAULTS", "clauses like site or site@n", None, |raw: &str| {
            Ok(Some(raw.to_string()))
        });
        let knobs = Knobs {
            events,
            results,
            log,
            trace,
            probe,
            faults,
        };
        (knobs, warnings)
    }

    /// The resolved values as the journal header's `knobs` object, keyed
    /// by variable name; `null` marks an off trace or an empty fault spec.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let str_or_null = |v: Option<String>| v.map_or(Json::Null, Json::Str);
        let pairs = [
            ("IBP_EVENTS", Json::Num(self.events as f64)),
            ("IBP_FAULTS", str_or_null(self.faults.clone())),
            ("IBP_LOG", Json::Num(f64::from(self.log))),
            ("IBP_PROBE", Json::Str(self.probe.as_str().to_string())),
            ("IBP_RESULTS", Json::Str(self.results.display().to_string())),
            (
                "IBP_TRACE",
                str_or_null(self.trace.as_ref().map(|p| p.display().to_string())),
            ),
        ];
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// The process's knobs: resolved from the environment on first use, with
/// each warning printed once, and unchanged afterwards.
#[must_use]
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let (knobs, warnings) = Knobs::resolve(|name| std::env::var(name).ok());
        for warning in warnings {
            eprintln!("{warning}");
        }
        knobs
    })
}

/// Resolves one knob's raw value: unset or blank gives `default`; a value
/// `parse` rejects gives `default` plus the warning line to print,
/// carrying `parse`'s reason (when non-empty) and the `expected` values.
pub fn resolve_knob<T>(
    name: &str,
    raw: Option<String>,
    expected: &str,
    default: T,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> (T, Option<String>) {
    let Some(raw) = raw.filter(|raw| !raw.trim().is_empty()) else {
        return (default, None);
    };
    match parse(&raw) {
        Ok(value) => (value, None),
        Err(reason) => {
            let reason = if reason.is_empty() {
                String::new()
            } else {
                format!(": {reason}")
            };
            let warning = format!(
                "warning: ignoring invalid {name}={raw:?}{reason} \
                 (expected {expected}); using the default"
            );
            (default, Some(warning))
        }
    }
}
