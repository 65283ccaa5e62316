//! What produced a record: source revision, host, toolchain and knobs.

use std::path::Path;
use std::process::Command;

use crate::json::quote;

/// Provenance of one benchmark record.
pub struct Provenance {
    /// Git commit of the source tree, or `unknown` outside a git checkout.
    pub commit: String,
    /// Whether tracked files differ from the commit (`None` when unknown).
    pub dirty: Option<bool>,
    /// Host name.
    pub host: String,
    /// CPU model.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
}

fn command_stdout(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    /// Collects provenance for the source tree rooted at `root`, an
    /// absolute path.
    #[must_use]
    pub fn collect(root: &Path) -> Provenance {
        // The ceiling keeps git from searching above `root`, so a source
        // tree that is not itself a git work tree reads as unknown rather
        // than as whatever repository encloses it.
        let ceiling = root.parent().unwrap_or(root);
        let git = |args: &[&str]| {
            command_stdout(
                Command::new("git")
                    .arg("-C")
                    .arg(root)
                    .args(args)
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            )
        };
        let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
        let read = |path: &str| std::fs::read_to_string(path).ok();
        Provenance {
            commit,
            dirty,
            host: read("/proc/sys/kernel/hostname")
                .map_or_else(|| "unknown".into(), |h| h.trim().to_string()),
            cpu: read("/proc/cpuinfo")
                .and_then(|info| {
                    info.lines()
                        .find_map(|l| l.strip_prefix("model name"))
                        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: command_stdout(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fields as JSON object members (without braces).
    #[must_use]
    pub fn json_members(&self) -> String {
        let dirty = self.dirty.map_or("null".to_string(), |d| d.to_string());
        format!(
            "\"commit\": {}, \"dirty\": {dirty}, \"host\": {}, \"cpu\": {}, \"nproc\": {}, \
             \"rustc\": {}",
            quote(&self.commit),
            quote(&self.host),
            quote(&self.cpu),
            self.nproc,
            quote(&self.rustc)
        )
    }
}
