//! Execution traces: who ran when, for debugging and for asserting
//! fine-grained scheduling behaviour in tests.

use twca_curves::Time;

/// One maximal interval during which a single job ran uninterrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionSpan {
    /// Chain index (chain-id order).
    pub chain: usize,
    /// Instance number of the chain (activation order).
    pub instance: usize,
    /// Task position within the chain.
    pub task_index: usize,
    /// Start of the interval.
    pub start: Time,
    /// End of the interval (exclusive).
    pub end: Time,
}

impl ExecutionSpan {
    /// Length of the interval.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// A full execution trace of one simulation run.
///
/// # Examples
///
/// ```
/// use twca_model::case_study;
/// use twca_sim::{Simulation, TraceSet};
///
/// let system = case_study();
/// let traces = TraceSet::max_rate(&system, 1_000);
/// let result = Simulation::new(&system).with_execution_trace(true).run(&traces);
/// let trace = result.execution_trace().expect("recording enabled");
/// assert!(trace.total_busy_time() > 0);
/// assert!(trace.is_consistent());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionTrace {
    spans: Vec<ExecutionSpan>,
}

impl ExecutionTrace {
    pub(crate) fn new() -> Self {
        ExecutionTrace::default()
    }

    /// Empties the trace, keeping the span buffer for reuse.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
    }

    /// Appends a span, merging it with the previous one when the same job
    /// continues seamlessly.
    pub(crate) fn record(&mut self, span: ExecutionSpan) {
        if span.start == span.end {
            return; // zero-length: nothing ran
        }
        if let Some(last) = self.spans.last_mut() {
            if last.chain == span.chain
                && last.instance == span.instance
                && last.task_index == span.task_index
                && last.end == span.start
            {
                last.end = span.end;
                return;
            }
        }
        self.spans.push(span);
    }

    /// All spans in chronological order.
    pub fn spans(&self) -> &[ExecutionSpan] {
        &self.spans
    }

    /// Total processor-busy time across all spans.
    pub fn total_busy_time(&self) -> Time {
        self.spans.iter().map(ExecutionSpan::duration).sum()
    }

    /// Number of preemptions: span boundaries where a job was interrupted
    /// before finishing its task (i.e. the same job resumes later).
    pub fn preemption_count(&self) -> usize {
        let mut count = 0;
        for (i, span) in self.spans.iter().enumerate() {
            let resumes_later = self.spans[i + 1..].iter().any(|s| {
                s.chain == span.chain
                    && s.instance == span.instance
                    && s.task_index == span.task_index
            });
            if resumes_later {
                count += 1;
            }
        }
        count
    }

    /// Structural sanity: spans are chronological and non-overlapping
    /// (one processor).
    pub fn is_consistent(&self) -> bool {
        self.spans.iter().all(|s| s.start < s.end)
            && self.spans.windows(2).all(|w| w[0].end <= w[1].start)
    }

    /// Renders a compact textual Gantt line per span (for debugging).
    pub fn render(&self, chain_names: &[&str]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            let name = chain_names.get(s.chain).copied().unwrap_or("?");
            let _ = writeln!(
                out,
                "[{:>6}..{:>6}) {}#{} task {}",
                s.start, s.end, name, s.instance, s.task_index
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_of_adjacent_spans() {
        let mut t = ExecutionTrace::new();
        t.record(ExecutionSpan {
            chain: 0,
            instance: 0,
            task_index: 0,
            start: 0,
            end: 5,
        });
        t.record(ExecutionSpan {
            chain: 0,
            instance: 0,
            task_index: 0,
            start: 5,
            end: 9,
        });
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].end, 9);
        assert_eq!(t.total_busy_time(), 9);
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let mut t = ExecutionTrace::new();
        t.record(ExecutionSpan {
            chain: 0,
            instance: 0,
            task_index: 0,
            start: 3,
            end: 3,
        });
        assert!(t.spans().is_empty());
    }

    #[test]
    fn preemption_counting() {
        let mut t = ExecutionTrace::new();
        // job A runs, is preempted by B, resumes.
        t.record(ExecutionSpan {
            chain: 0,
            instance: 0,
            task_index: 0,
            start: 0,
            end: 3,
        });
        t.record(ExecutionSpan {
            chain: 1,
            instance: 0,
            task_index: 0,
            start: 3,
            end: 5,
        });
        t.record(ExecutionSpan {
            chain: 0,
            instance: 0,
            task_index: 0,
            start: 5,
            end: 8,
        });
        assert_eq!(t.preemption_count(), 1);
        assert!(t.is_consistent());
    }

    #[test]
    fn inconsistent_overlap_is_detected() {
        let mut t = ExecutionTrace::new();
        t.spans.push(ExecutionSpan {
            chain: 0,
            instance: 0,
            task_index: 0,
            start: 0,
            end: 5,
        });
        t.spans.push(ExecutionSpan {
            chain: 1,
            instance: 0,
            task_index: 0,
            start: 3,
            end: 6,
        });
        assert!(!t.is_consistent());
    }

    #[test]
    fn render_contains_chain_names() {
        let mut t = ExecutionTrace::new();
        t.record(ExecutionSpan {
            chain: 0,
            instance: 2,
            task_index: 1,
            start: 0,
            end: 5,
        });
        let text = t.render(&["alpha"]);
        assert!(text.contains("alpha#2"));
        assert!(text.contains("task 1"));
    }
}
