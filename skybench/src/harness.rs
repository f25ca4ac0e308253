//! What every workload shares: the timed-phase gate, per-thread op
//! recording and the end-to-end metrics computed from the samples.

use crate::stats::{geomean, median, ms, process_cpu, quantile};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest successful operations a timed phase completes, so that the p99
/// always leaves at least ten samples above it.
pub const MIN_OPS: u64 = 1000;

/// Decides when a closed-loop client stops: at the end of a whole round,
/// once `seconds` have passed and enough operations succeeded, or in any
/// case once three times `seconds` have passed.
pub struct Gate {
    start: Instant,
    seconds: f64,
    min_ops: u64,
    ops: AtomicU64,
}

impl Gate {
    /// Open the gate now; `min_ops` is [`MIN_OPS`] for the phases that
    /// report a p99 and 0 for the traced phase.
    pub fn new(seconds: f64, min_ops: u64) -> Gate {
        Gate {
            start: Instant::now(),
            seconds,
            min_ops,
            ops: AtomicU64::new(0),
        }
    }

    /// Count `n` successful operations.
    pub fn count(&self, n: u64) {
        self.ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Seconds since the gate opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The phase's nominal length in seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Length of one measurement window.
    fn window(&self) -> f64 {
        self.seconds / WINDOWS_PER_RUN
    }

    /// Whether a client that just finished a round should stop.
    pub fn done(&self) -> bool {
        let t = self.elapsed();
        (t >= self.seconds && self.ops.load(Ordering::Relaxed) >= self.min_ops)
            || t >= 3.0 * self.seconds
    }
}

/// How one operation ended.
pub enum Outcome {
    /// Answered, and the answer checked out.
    Ok,
    /// The program returned an error for it.  Only the reversed-range
    /// searches may end so; any other error is [`Outcome::Wrong`].
    Failed,
    /// Answered wrongly.
    Wrong(String),
}

/// One thread's record of a phase.
#[derive(Default)]
pub struct Recorder {
    /// `(op type, latency ms, completion s)` of every successful operation.
    pub samples: Vec<(usize, f64, f64)>,
    /// Completion time (s since the phase began) of every attempted one.
    pub done: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations the program failed.
    pub failed: u64,
    /// The first wrong answers.
    pub wrong: Vec<String>,
    /// Layer counters (summed across threads).
    pub counters: BTreeMap<String, f64>,
    /// Layer samples (pooled across threads).
    pub distributions: BTreeMap<String, Vec<f64>>,
    /// `(op id, query key)` of every SELECT replayed layer by layer; ops
    /// with the same key ran the same query.
    pub sql_keys: Vec<(u64, String)>,
}

impl Recorder {
    /// Record one operation of type `ty` that took `latency`.
    pub fn record(&mut self, ty: usize, latency: Duration, outcome: Outcome, gate: Option<&Gate>) {
        self.attempted += 1;
        let done = gate.map_or(0.0, Gate::elapsed);
        self.done.push(done);
        match outcome {
            Outcome::Ok => {
                self.samples.push((ty, ms(latency), done));
                if let Some(gate) = gate {
                    gate.count(1);
                }
            }
            Outcome::Failed => self.failed += 1,
            Outcome::Wrong(why) => {
                self.samples.push((ty, ms(latency), done));
                self.note_wrong(why);
            }
        }
    }

    /// Add to a layer counter.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Add a sample to a layer distribution.
    pub fn sample(&mut self, name: &str, v: f64) {
        self.distributions
            .entry(name.to_string())
            .or_default()
            .push(v);
    }

    /// Note a wrong answer found outside a timed operation.
    pub fn note_wrong(&mut self, why: String) {
        if self.wrong.len() < 5 {
            self.wrong.push(why);
        }
    }

    /// Fold another thread's record into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.sql_keys.extend(other.sql_keys);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.distributions {
            self.distributions.entry(k).or_default().extend(v);
        }
    }
}

/// Throughput and CPU per operation are medians over windows of 1/8 of the
/// run, so that a burst of load from outside the benchmark moves one window
/// rather than the whole run.  Eight windows also align with the eight
/// publishes of `release_churn`: each window holds exactly one.
const WINDOWS_PER_RUN: f64 = 8.0;

/// A finished phase.
pub struct Phase {
    /// Names of the operation types.
    pub types: Vec<String>,
    /// Every thread's records, merged.
    pub rec: Recorder,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Process CPU time used during the phase.
    pub cpu: Duration,
    /// `(seconds since the start, process CPU time)` at each window
    /// boundary, the first at the start.
    pub marks: Vec<(f64, Duration)>,
}

/// Measures a phase's wall and CPU time, and its CPU time per window.
pub struct PhaseClock {
    wall: Instant,
    cpu: Duration,
    stop: Arc<AtomicBool>,
    sampler: std::thread::JoinHandle<Vec<(f64, Duration)>>,
}

impl PhaseClock {
    /// Start measuring; a timed phase (with a gate) also samples the CPU
    /// time at every window boundary.
    pub fn start(gate: Option<&Gate>) -> PhaseClock {
        let wall = Instant::now();
        let cpu = process_cpu();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let window = gate.map(Gate::window);
        let sampler = std::thread::spawn(move || {
            let mut marks = vec![(0.0, cpu)];
            let Some(window) = window else {
                return marks;
            };
            loop {
                let due = wall + Duration::from_secs_f64(window * marks.len() as f64);
                while Instant::now() < due {
                    if flag.load(Ordering::Acquire) {
                        return marks;
                    }
                    std::thread::sleep((due - Instant::now()).min(Duration::from_millis(20)));
                }
                marks.push((wall.elapsed().as_secs_f64(), process_cpu()));
            }
        });
        PhaseClock {
            wall,
            cpu,
            stop,
            sampler,
        }
    }

    /// Stop and package the phase.
    pub fn stop(self, types: Vec<String>, rec: Recorder) -> Phase {
        let wall = self.wall.elapsed();
        let cpu = process_cpu().saturating_sub(self.cpu);
        self.stop.store(true, Ordering::Release);
        let marks = self.sampler.join().expect("the CPU sampler does not panic");
        Phase {
            types,
            rec,
            wall,
            cpu,
            marks,
        }
    }
}

impl Phase {
    /// Median latency (ms) of each operation type that has samples.
    pub fn type_medians(&self) -> BTreeMap<String, f64> {
        let mut by_type: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(ty, latency, _) in &self.rec.samples {
            by_type.entry(ty).or_default().push(latency);
        }
        by_type
            .into_iter()
            .map(|(ty, v)| (self.types[ty].clone(), median(&v)))
            .collect()
    }

    /// The timed-phase end-to-end metrics: `(name, value, unit)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut lat: Vec<f64> = self.rec.samples.iter().map(|s| s.1).collect();
        lat.sort_by(f64::total_cmp);
        let (p50, p99) = if lat.is_empty() {
            (0.0, 0.0)
        } else {
            (quantile(&lat, 0.5), quantile(&lat, 0.99))
        };
        let medians: Vec<f64> = self.type_medians().into_values().collect();
        let (ops_per_s, cpu_per_op) = self.window_medians().unwrap_or((
            lat.len() as f64 / self.wall.as_secs_f64(),
            ms(self.cpu) / self.rec.attempted.max(1) as f64,
        ));
        vec![
            ("ops_per_s", ops_per_s, "op/s"),
            ("p50_ms", p50, "ms"),
            ("p99_ms", p99, "ms"),
            ("optype_geomean_ms", geomean(&medians), "ms"),
            ("cpu_ms_per_op", cpu_per_op, "ms/op"),
        ]
    }

    /// Medians over the complete windows of successful operations per
    /// second and CPU ms per attempted operation (`None` with fewer than
    /// three windows).
    fn window_medians(&self) -> Option<(f64, f64)> {
        let windows = self.marks.len().saturating_sub(1);
        if windows < 3 {
            return None;
        }
        let window = |t: f64| self.marks.partition_point(|m| m.0 <= t).wrapping_sub(1);
        let mut succeeded = vec![0usize; windows];
        let mut attempted = vec![0usize; windows];
        for &(_, _, done) in &self.rec.samples {
            if let Some(n) = succeeded.get_mut(window(done)) {
                *n += 1;
            }
        }
        for &done in &self.rec.done {
            if let Some(n) = attempted.get_mut(window(done)) {
                *n += 1;
            }
        }
        let span = |k: usize| {
            (
                self.marks[k + 1].0 - self.marks[k].0,
                self.marks[k + 1].1.saturating_sub(self.marks[k].1),
            )
        };
        let rates: Vec<f64> = (0..windows)
            .map(|k| succeeded[k] as f64 / span(k).0)
            .collect();
        let cpu: Vec<f64> = (0..windows)
            .map(|k| ms(span(k).1) / attempted[k].max(1) as f64)
            .collect();
        Some((median(&rates), median(&cpu)))
    }
}
