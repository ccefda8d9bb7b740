//! Metrics from measured workloads, and their text and JSON forms.

use std::fmt::Write as _;

use crate::trace::{median, quantile, Count, Kind, SpanRecord, Totals};
use crate::workloads::Outcome;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
    Metric {
        name,
        unit,
        value: value + 0.0,
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced invocation: medians over its
/// set-up repetitions, timed passes and recovery repetitions.
pub fn end_to_end(o: &Outcome, rss_mb: f64) -> Vec<Metric> {
    let per_change: Vec<f64> = o
        .run_s
        .iter()
        .zip(&o.changes)
        .map(|(&s, &c)| s * 1e9 / c as f64)
        .collect();
    vec![
        metric("setup_s", "s", median(&o.setup_s)),
        metric("run_s", "s", median(&o.run_s)),
        metric("ns_per_change", "ns", median(&per_change)),
        metric("recover_s", "s", median(&o.recover_s)),
        metric("peak_rss_mb", "MB", rss_mb),
    ]
}

/// Everything the trace of one workload recorded.
pub struct Trace<'a> {
    /// The untraced single pass the trace is compared against.
    pub plain: &'a Outcome,
    /// The traced single pass.
    pub traced: &'a Outcome,
    /// Totals per phase or discovery span, in the order they ended.
    pub sections: &'a [(Kind, Totals)],
    /// Every coarse span of the traced workload.
    pub spans: &'a [SpanRecord],
}

impl Trace<'_> {
    fn durations(&self, kind: Kind) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end_s - s.start_s)
            .collect()
    }

    fn wall(&self, kind: Kind) -> f64 {
        self.durations(kind).iter().sum()
    }

    /// Totals summed over every section of the given kinds.
    fn section(&self, kinds: &[Kind]) -> Totals {
        let mut sum = Totals::default();
        for (_, t) in self.sections.iter().filter(|(k, _)| kinds.contains(k)) {
            for i in 0..sum.calls.len() {
                sum.calls[i] += t.calls[i];
                sum.self_s[i] += t.self_s[i];
            }
            for i in 0..sum.counts.len() {
                sum.counts[i] += t.counts[i];
            }
            sum.sampling_s += t.sampling_s;
        }
        sum
    }

    /// Traced timed-phase seconds.
    pub fn run_s(&self) -> f64 {
        self.traced.run_s.iter().sum()
    }

    /// Tracing overhead: traced over untraced timed-phase seconds, less 1.
    pub fn overhead_frac(&self) -> f64 {
        self.run_s() / self.plain.run_s.iter().sum::<f64>() - 1.0
    }

    /// Thread-seconds of the timed phase no trial span covered.
    pub fn idle_s(&self) -> f64 {
        self.traced.facts.threads as f64 * self.run_s() - self.wall(Kind::Trial)
    }

    /// Thread-seconds the trial spans of the timed phase took.
    pub fn trial_s(&self) -> f64 {
        self.wall(Kind::Trial)
    }

    /// Seconds the sampled change-point windows of the timed phase took
    /// beyond the time they stand for: the clock reads of sampling, part
    /// of the tracing overhead.
    pub fn sampling_s(&self) -> f64 {
        self.section(&[Kind::Run]).sampling_s
    }

    /// Trial thread-seconds that neither the per-layer self times (engine
    /// included) nor the sampling cost account for; negative when they
    /// over-account. Zero up to the sampling error of the fine spans
    /// outside change-point windows.
    pub fn accounting_gap_s(&self) -> f64 {
        self.trial_s() - self.section(&[Kind::Run]).busy_s() - self.sampling_s()
    }

    /// The largest accounting gap the trace tolerates: 2 % of the traced
    /// trials, and never less than 10 ms.
    pub fn accounting_tolerance_s(&self) -> f64 {
        (0.02 * self.trial_s()).max(0.01)
    }

    /// The per-layer metrics, over the set-up, timed and recovery phases
    /// of the traced workload.
    pub fn per_layer(&self) -> Vec<Metric> {
        let a = &self.section(&[Kind::Setup, Kind::Run, Kind::Recover]);
        let facts = &self.traced.facts;
        let trials = self.durations(Kind::Trial);
        let discovery = self.section(&[Kind::Discovery]);
        vec![
            metric(
                "scheduler.next_change.calls",
                "count",
                a.calls(Kind::NextChange) as f64,
            ),
            metric(
                "scheduler.next_change.self_s",
                "s",
                a.self_s(Kind::NextChange),
            ),
            metric(
                "scheduler.skipped_steps",
                "count",
                a.count(Count::SkippedSteps) as f64,
            ),
            metric("rng.words", "count", a.count(Count::RngWords) as f64),
            metric(
                "activity.count_changed.calls",
                "count",
                a.calls(Kind::CountChanged) as f64,
            ),
            metric(
                "activity.count_changed.self_s",
                "s",
                a.self_s(Kind::CountChanged),
            ),
            metric(
                "activity.settle.calls",
                "count",
                a.calls(Kind::Settle) as f64,
            ),
            metric("activity.settle.self_s", "s", a.self_s(Kind::Settle)),
            metric(
                "activity.sample_change.self_s",
                "s",
                a.self_s(Kind::SampleChange),
            ),
            metric(
                "activity.add_slot.calls",
                "count",
                a.calls(Kind::AddSlot) as f64,
            ),
            metric(
                "activity.add_slot_from_lists.calls",
                "count",
                a.calls(Kind::AddSlotFromLists) as f64,
            ),
            metric(
                "activity.add_slot.self_s",
                "s",
                a.self_s(Kind::AddSlot) + a.self_s(Kind::AddSlotFromLists),
            ),
            metric(
                "activity.mean_degree",
                "count",
                facts.active_pairs as f64 / facts.slots.max(1) as f64,
            ),
            metric(
                "activity.adjacency_bytes",
                "bytes",
                facts.adjacency_bytes as f64,
            ),
            metric(
                "protocol.transition.calls",
                "count",
                a.calls(Kind::Transition) as f64,
            ),
            metric(
                "protocol.transition.self_s",
                "s",
                a.self_s(Kind::Transition),
            ),
            metric("engine.self_s", "s", a.self_s(Kind::Trial)),
            metric(
                "engine.state_changes",
                "count",
                self.traced.changes.iter().sum::<u64>() as f64,
            ),
            metric("engine.slots", "count", facts.slots as f64),
            metric("discovery.build_s", "s", self.wall(Kind::Discovery)),
            metric(
                "discovery.transition_calls",
                "count",
                discovery.calls(Kind::Transition) as f64,
            ),
            metric("store.save_s", "s", self.wall(Kind::StoreSave)),
            metric("store.load_s", "s", self.wall(Kind::StoreLoad)),
            metric("store.file_bytes", "bytes", facts.store_bytes as f64),
            metric(
                "checkpoint.saves",
                "count",
                self.durations(Kind::CheckpointSave).len() as f64,
            ),
            metric("checkpoint.save_s", "s", self.wall(Kind::CheckpointSave)),
            metric(
                "checkpoint.file_bytes",
                "bytes",
                facts.checkpoint_bytes as f64,
            ),
            metric("checkpoint.load_s", "s", self.wall(Kind::CheckpointLoad)),
            metric("checkpoint.resume_s", "s", self.wall(Kind::Resume)),
            metric("table.export_s", "s", self.wall(Kind::Export)),
            metric("table.states_added", "count", facts.states_added as f64),
            metric("runner.trial_s.p50", "s", quantile(&trials, 0.5)),
            metric("runner.trial_s.max", "s", quantile(&trials, 1.0)),
            metric("runner.idle_s", "s", self.idle_s()),
            metric("trace.run_s", "s", self.run_s()),
            metric("trace.overhead_frac", "ratio", self.overhead_frac()),
            metric(
                "trace.sampling_frac",
                "ratio",
                self.sampling_s() / self.trial_s(),
            ),
            metric(
                "trace.accounting_gap_frac",
                "ratio",
                self.accounting_gap_s() / self.trial_s(),
            ),
        ]
    }

    /// Where each phase's time went: per kind, calls and self seconds,
    /// largest first.
    pub fn breakdown(&self) -> String {
        let mut text = String::new();
        for phase in [Kind::Setup, Kind::Run, Kind::Recover] {
            let t = self.section(&[phase]);
            let wall = self.wall(phase);
            let _ = writeln!(text, "{} ({wall:.3} s wall):", phase.name());
            let mut rows: Vec<(Kind, f64)> = Kind::ALL
                .iter()
                .filter(|k| !k.is_phase() && t.calls(**k) > 0)
                .map(|&k| (k, t.self_s(k)))
                .collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (k, s) in rows {
                let _ = writeln!(
                    text,
                    "  {:<30} {:>12} calls {:>10.4} s self",
                    if k == Kind::Trial { "engine" } else { k.name() },
                    t.calls(k),
                    s
                );
            }
        }
        text
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The coarse spans as JSON lines.
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"thread\": {}, \"start_s\": {:?}, \"end_s\": {:?}}}",
            s.id,
            s.kind.name(),
            s.thread,
            s.start_s,
            s.end_s
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Facts;

    fn outcome(run_s: f64, threads: usize) -> Outcome {
        Outcome {
            setup_s: vec![0.3, 0.1, 0.2],
            run_s: vec![run_s],
            changes: vec![1000],
            recover_s: vec![0.5],
            facts: Facts {
                threads,
                ..Facts::default()
            },
            ..Outcome::default()
        }
    }

    fn record(id: u64, kind: Kind, start_s: f64, end_s: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            kind,
            thread: 0,
            start_s,
            end_s,
        }
    }

    #[test]
    fn end_to_end_takes_medians_and_normalises_per_change() {
        let m = end_to_end(&outcome(2.0, 1), 12.5);
        let get = |n: &str| m.iter().find(|m| m.name == n).expect("metric").value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("run_s"), 2.0);
        assert_eq!(get("ns_per_change"), 2e6);
        assert_eq!(get("recover_s"), 0.5);
        assert_eq!(get("peak_rss_mb"), 12.5);
    }

    #[test]
    fn accounting_splits_two_threads_into_layers_engine_sampling_and_idle() {
        // Two threads ran a 1.0 s traced phase; two trials of 0.9 s each
        // cover 1.8 of its 2.0 thread-seconds. Inside them the layers and
        // the engine account for 1.75 s and sampling cost 0.03 s.
        let plain = outcome(0.8, 2);
        let traced = outcome(1.0, 2);
        let mut run = Totals::default();
        run.calls[Kind::NextChange as usize] = 10;
        run.self_s[Kind::NextChange as usize] = 1.0;
        run.calls[Kind::Trial as usize] = 2;
        run.self_s[Kind::Trial as usize] = 0.75;
        run.sampling_s = 0.03;
        // Phase self time is harness time, never layer time.
        run.self_s[Kind::Run as usize] = 5.0;
        let sections = [(Kind::Run, run)];
        let spans = [
            record(0, Kind::Run, 0.0, 1.0),
            record(1, Kind::Trial, 0.0, 0.9),
            record(2, Kind::Trial, 0.05, 0.95),
        ];
        let trace = Trace {
            plain: &plain,
            traced: &traced,
            sections: &sections,
            spans: &spans,
        };
        assert!((trace.trial_s() - 1.8).abs() < 1e-12);
        assert!((trace.idle_s() - 0.2).abs() < 1e-12);
        assert!((trace.accounting_gap_s() - 0.02).abs() < 1e-12);
        assert!((trace.accounting_tolerance_s() - 0.036).abs() < 1e-12);
        assert!((trace.overhead_frac() - 0.25).abs() < 1e-12);
        let layer = trace.per_layer();
        let get = |n: &str| layer.iter().find(|m| m.name == n).expect("metric").value;
        assert!((get("runner.trial_s.p50") - 0.9).abs() < 1e-12);
        assert_eq!(get("engine.self_s"), 0.75);
        assert_eq!(get("scheduler.next_change.calls"), 10.0);
        assert!((get("trace.sampling_frac") - 0.03 / 1.8).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_the_four_keys_and_finite_values() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("run_s", "s", 1.25), metric("x", "ratio", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
    }
}
