//! Deterministic trace record/replay over the dispatch boundary
//! (tentpole interceptor #2).
//!
//! A [`TraceRecorder`] registered on the kernel captures the full
//! `(pid, Syscall, SysRet)` stream of a run as a [`Trace`]. Because the
//! simulation is deterministic (seeded PRNGs, logical clock), re-running
//! the same workload under the same seed reproduces the stream
//! byte-identically — which a [`TraceReplayer`] verifies call by call,
//! reporting any [`Divergence`]. This turns behavioural comparisons
//! (e.g. the paper's §5.3 legacy-vs-Protego suite) into diffs over
//! rendered traces.
//!
//! Entries store the `Debug` rendering of request and response rather
//! than the values themselves: every argument type renders totally, the
//! format is diff-friendly, and equality over renderings is exactly the
//! byte-identity the replay guarantee promises.

use crate::sync::lock;
use crate::syscall::abi::{SysRet, Syscall};
use crate::syscall::interceptor::{Interceptor, SysCtx};
use crate::task::Pid;
use std::sync::{Arc, Mutex};

/// One dispatched call, as recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Calling pid.
    pub pid: u32,
    /// `Debug` rendering of the [`Syscall`] request.
    pub call: String,
    /// `Debug` rendering of the [`SysRet`] response.
    pub ret: String,
}

impl TraceEntry {
    /// Builds an entry from a live triple.
    pub fn new(pid: Pid, call: &Syscall, ret: &SysRet) -> TraceEntry {
        TraceEntry {
            pid: pid.0,
            call: format!("{:?}", call),
            ret: format!("{:?}", ret),
        }
    }

    /// One-line serialization: `pid <tab> call <tab> ret`.
    pub fn render(&self) -> String {
        format!("{}\t{}\t{}", self.pid, self.call, self.ret)
    }

    /// Parses [`TraceEntry::render`] output.
    pub fn parse(line: &str) -> Option<TraceEntry> {
        let mut parts = line.splitn(3, '\t');
        let pid = parts.next()?.parse().ok()?;
        let call = parts.next()?.to_string();
        let ret = parts.next()?.to_string();
        Some(TraceEntry { pid, call, ret })
    }
}

/// Why a serialized trace failed to parse.
///
/// Both variants carry the 1-based line number and the offending line so
/// a differential harness can say exactly where a corpus file went bad
/// instead of silently comparing a mis-aligned prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A line did not split into `pid <tab> call <tab> ret` with a
    /// numeric pid.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending line, verbatim.
        content: String,
    },
    /// The text does not end in a newline, so the final line may have
    /// been cut mid-entry. [`Trace::render`] always terminates every
    /// entry with `\n`; a partial tail — even one that happens to split
    /// into three fields — would otherwise enter the diff as a bogus
    /// entry and mis-align [`Trace::first_divergence`].
    TruncatedFinalLine {
        /// 1-based line number of the partial tail.
        line: usize,
        /// The partial tail, verbatim.
        content: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { line, content } => {
                write!(f, "trace line {}: malformed: {:?}", line, content)
            }
            TraceError::TruncatedFinalLine { line, content } => write!(
                f,
                "trace line {}: truncated final line (no terminating newline): {:?}",
                line, content
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A recorded syscall stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Entries in dispatch order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Number of recorded calls.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Line-per-entry serialization of the whole stream.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Parses [`Trace::render`] output; malformed and truncated lines are
    /// a typed [`TraceError`], never a silently shortened trace.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        // Render terminates every entry with '\n'; a missing final
        // newline means the last entry was cut mid-write. Reject it
        // before field-splitting, because a truncated ret field can
        // still split into three fields and would otherwise slip into
        // the diff as a plausible-looking bogus entry.
        if !text.is_empty() && !text.ends_with('\n') {
            let line = text.lines().count();
            let content = text.lines().next_back().unwrap_or("").to_string();
            return Err(TraceError::TruncatedFinalLine { line, content });
        }
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            match TraceEntry::parse(line) {
                Some(e) => entries.push(e),
                None => {
                    return Err(TraceError::Malformed {
                        line: i + 1,
                        content: line.to_string(),
                    })
                }
            }
        }
        Ok(Trace { entries })
    }

    /// First index at which `self` and `other` differ, if any; compares
    /// entry-by-entry and then length.
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        for (i, (a, b)) in self.entries.iter().zip(other.entries.iter()).enumerate() {
            if a != b {
                return Some(i);
            }
        }
        if self.entries.len() != other.entries.len() {
            return Some(self.entries.len().min(other.entries.len()));
        }
        None
    }

    /// Human-readable report of the first divergence between `self` and
    /// `other`, with up to `context` preceding (agreeing) entries for
    /// orientation. `None` when the traces are identical. Lines are
    /// prefixed `  ` (shared context), `-` (self's side) and `+`
    /// (other's side); a missing side renders as `<end of trace>`.
    pub fn divergence_report(&self, other: &Trace, context: usize) -> Option<String> {
        let i = self.first_divergence(other)?;
        let mut out = String::new();
        out.push_str(&format!("first divergence at entry {}:\n", i));
        for j in i.saturating_sub(context)..i {
            out.push_str(&format!("   {}\n", self.entries[j].render()));
        }
        let side = |e: Option<&TraceEntry>| match e {
            Some(e) => e.render(),
            None => "<end of trace>".to_string(),
        };
        out.push_str(&format!("-  {}\n", side(self.entries.get(i))));
        out.push_str(&format!("+  {}\n", side(other.entries.get(i))));
        Some(out)
    }
}

/// Records every dispatched call into a shared [`Trace`].
pub struct TraceRecorder {
    trace: Arc<Mutex<Trace>>,
}

impl TraceRecorder {
    /// Builds a recorder; hold on to [`TraceRecorder::trace`] before
    /// boxing it into the kernel.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            trace: Arc::new(Mutex::new(Trace::default())),
        }
    }

    /// Shared handle onto the accumulating trace.
    pub fn trace(&self) -> Arc<Mutex<Trace>> {
        Arc::clone(&self.trace)
    }
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl Interceptor for TraceRecorder {
    fn name(&self) -> &'static str {
        "trace_recorder"
    }

    fn after(&self, pid: Pid, call: &Syscall, ret: &SysRet, _ctx: &mut SysCtx) {
        lock(&self.trace)
            .entries
            .push(TraceEntry::new(pid, call, ret));
    }
}

/// One replay mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Stream position (0-based).
    pub index: usize,
    /// What the recorded trace expected at this position, if any.
    pub expected: Option<TraceEntry>,
    /// What the replay actually dispatched.
    pub actual: TraceEntry,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.expected {
            Some(e) => write!(
                f,
                "entry {}: expected `{}`, got `{}`",
                self.index,
                e.render(),
                self.actual.render()
            ),
            None => write!(
                f,
                "entry {}: past end of recorded trace: `{}`",
                self.index,
                self.actual.render()
            ),
        }
    }
}

/// Verifies a live run against a recorded [`Trace`], call by call.
pub struct TraceReplayer {
    expected: Trace,
    /// Stream position; a replayed run is driven from one thread, but the
    /// trait is `&self`, so the cursor lives behind the same mutex as the
    /// divergence list to keep (position, mismatch) updates atomic.
    state: Mutex<usize>,
    divergences: Arc<Mutex<Vec<Divergence>>>,
}

impl TraceReplayer {
    /// Builds a replayer over a previously recorded trace; hold on to
    /// [`TraceReplayer::divergences`] before boxing it into the kernel.
    pub fn new(expected: Trace) -> TraceReplayer {
        TraceReplayer {
            expected,
            state: Mutex::new(0),
            divergences: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Shared handle onto the accumulated mismatches.
    pub fn divergences(&self) -> Arc<Mutex<Vec<Divergence>>> {
        Arc::clone(&self.divergences)
    }
}

impl Interceptor for TraceReplayer {
    fn name(&self) -> &'static str {
        "trace_replayer"
    }

    fn after(&self, pid: Pid, call: &Syscall, ret: &SysRet, _ctx: &mut SysCtx) {
        let actual = TraceEntry::new(pid, call, ret);
        let mut cursor = lock(&self.state);
        let expected = self.expected.entries.get(*cursor).cloned();
        if expected.as_ref() != Some(&actual) {
            lock(&self.divergences).push(Divergence {
                index: *cursor,
                expected,
                actual,
            });
        }
        *cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pid: u32, call: &str, ret: &str) -> TraceEntry {
        TraceEntry {
            pid,
            call: call.to_string(),
            ret: ret.to_string(),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let t = Trace {
            entries: vec![
                entry(3, "Open { path: \"/etc/passwd\" }", "Fd(3)"),
                entry(3, "Close { fd: 3 }", "Unit"),
            ],
        };
        assert_eq!(Trace::parse(&t.render()).unwrap(), t);
    }

    #[test]
    fn malformed_line_is_a_typed_error() {
        assert_eq!(
            Trace::parse("not-a-pid\tx\ty\n"),
            Err(TraceError::Malformed {
                line: 1,
                content: "not-a-pid\tx\ty".to_string(),
            })
        );
        assert_eq!(
            Trace::parse("3\tOpen\tFd(3)\n3\tmissing-ret\n"),
            Err(TraceError::Malformed {
                line: 2,
                content: "3\tmissing-ret".to_string(),
            })
        );
    }

    #[test]
    fn partial_final_line_is_rejected_not_misaligned() {
        let full = Trace {
            entries: vec![
                entry(3, "Open { path: \"/etc/passwd\" }", "Fd(3)"),
                entry(3, "Close { fd: 3 }", "Unit"),
            ],
        }
        .render();
        // Chop the trailing newline: the tail still splits into three
        // fields, so a naive parser would accept a bogus final entry.
        let chopped = full.trim_end_matches('\n');
        assert_eq!(
            Trace::parse(chopped),
            Err(TraceError::TruncatedFinalLine {
                line: 2,
                content: "3\tClose { fd: 3 }\tUnit".to_string(),
            })
        );
        // Chop mid-field too: same typed rejection, not a short trace.
        let cut = &full[..full.len() - 3];
        match Trace::parse(cut) {
            Err(TraceError::TruncatedFinalLine { line: 2, .. }) => {}
            other => panic!("mid-field cut must be a truncation error, got {:?}", other),
        }
        // A single partial line with no newline at all.
        match Trace::parse("7\tGetuid") {
            Err(TraceError::TruncatedFinalLine { line: 1, .. }) => {}
            other => panic!("partial first line must be truncation, got {:?}", other),
        }
        // The intact rendering still round-trips.
        assert_eq!(Trace::parse(&full).unwrap().len(), 2);
    }

    #[test]
    fn divergence_report_shows_context_and_both_sides() {
        let a = Trace {
            entries: vec![
                entry(1, "Getuid", "Uid(0)"),
                entry(1, "Pipe", "FdPair(3, 4)"),
            ],
        };
        assert_eq!(a.divergence_report(&a.clone(), 2), None);
        let mut b = a.clone();
        b.entries[1].ret = "FdPair(5, 6)".to_string();
        let report = a.divergence_report(&b, 2).unwrap();
        assert!(report.contains("entry 1"), "{}", report);
        assert!(report.contains("   1\tGetuid\tUid(0)"), "{}", report);
        assert!(report.contains("-  1\tPipe\tFdPair(3, 4)"), "{}", report);
        assert!(report.contains("+  1\tPipe\tFdPair(5, 6)"), "{}", report);
        let mut longer = a.clone();
        longer.entries.push(entry(1, "Close { fd: 3 }", "Unit"));
        let report = a.divergence_report(&longer, 0).unwrap();
        assert!(report.contains("-  <end of trace>"), "{}", report);
    }

    #[test]
    fn first_divergence_finds_mismatch_and_length_skew() {
        let a = Trace {
            entries: vec![entry(1, "Pipe", "FdPair(3, 4)")],
        };
        let same = a.clone();
        assert_eq!(a.first_divergence(&same), None);
        let mut longer = a.clone();
        longer.entries.push(entry(1, "Close { fd: 3 }", "Unit"));
        assert_eq!(a.first_divergence(&longer), Some(1));
        let mut differs = a.clone();
        differs.entries[0].ret = "FdPair(5, 6)".to_string();
        assert_eq!(a.first_divergence(&differs), Some(0));
    }
}
