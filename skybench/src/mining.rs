//! `sql_mining`: one session runs the 36 documented queries in-process
//! through `SkyServer::execute`, every query once per round, each round in
//! a seeded shuffled order.

use crate::harness::{Gate, Outcome, Phase, PhaseClock, Recorder};
use crate::layers::traced_select;
use crate::oracle::{Oracle, G, I, R, U, Z};
use crate::stats::Rng;
use crate::trace::Tracer;
use skyserver::skygen::{PhotoFlag, SpecClass};
use skyserver::sql::QueryLimits;
use skyserver::storage::ScanStats;
use skyserver::SkyServer;
use skyserver_queries::{all_queries, QuerySpec};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Add one statement's scan counters to the layer counters.
pub fn count_scan(rec: &mut Recorder, s: &ScanStats) {
    rec.add("sql.statements", 1.0);
    rec.add(
        "sql.rows_examined",
        (s.rows_scanned + s.rows_from_index) as f64,
    );
    rec.add("sql.rows_returned", s.rows_returned as f64);
    rec.add("sql.predicates_evaluated", s.predicates_evaluated as f64);
    rec.add("storage.index_seeks", s.index_seeks as f64);
    rec.add("storage.segments_pruned", s.segments_pruned as f64);
    rec.add("storage.bytes_scanned", s.bytes_scanned as f64);
}

/// What a query's answer must hold, computed from the survey: the row
/// count of a single-table selection, the value of a scalar count, or the
/// `(key, count)` rows of a single-table `group by`.
enum Expect {
    Rows(usize),
    Scalar(i64),
    Groups(BTreeMap<i64, i64>),
}

/// Rows per key.
fn groups(keys: &mut dyn Iterator<Item = i64>) -> Expect {
    let mut counts = BTreeMap::new();
    for k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    Expect::Groups(counts)
}

fn expectations(oracle: &Oracle) -> HashMap<&'static str, Expect> {
    let n = |it: &mut dyn Iterator<Item = bool>| it.filter(|&b| b).count();
    let distinct = |it: &mut dyn Iterator<Item = i64>| it.collect::<BTreeSet<_>>().len();
    let galaxies: Vec<_> = oracle.galaxies().collect();
    let primary: Vec<_> = oracle.primary().collect();
    let stars: Vec<_> = oracle.stars().collect();
    let qso = [SpecClass::Qso as i64, SpecClass::HizQso as i64];
    let flag = |f: PhotoFlag| n(&mut oracle.photo.iter().map(|o| o.flags & f as i64 > 0)) as i64;
    HashMap::from([
        (
            "Q2",
            Expect::Rows(n(&mut galaxies.iter().map(|o| {
                (18.0..=23.0).contains(&o.model_mag[G]) && o.petro_rad_r > 3.0 && o.dec < 0.0
            }))),
        ),
        (
            "Q3",
            Expect::Rows(n(&mut primary.iter().map(|o| {
                o.obj_type == 3 && o.model_mag[R] < 22.0 && o.model_mag_err[R] > 0.02
            }))),
        ),
        (
            "Q4",
            Expect::Rows(n(&mut galaxies.iter().map(|o| {
                o.iso_a[R] > 3.0 && (o.q[R].powf(2.0) + o.u[R].powf(2.0)) > 0.25
            }))),
        ),
        (
            "Q5",
            Expect::Rows(n(&mut galaxies.iter().map(|o| {
                o.prob_psf < 0.2 && (o.model_mag[U] - o.model_mag[G]) > 1.0 && o.petro_rad_r > 3.0
            }))),
        ),
        (
            "Q7",
            Expect::Rows(n(&mut stars
                .iter()
                .map(|o| (o.model_mag[U] - o.model_mag[G]) < 0.55))),
        ),
        (
            "Q8",
            Expect::Rows(n(&mut oracle.spec.iter().map(|s| s.spec_class == 0))),
        ),
        (
            "Q15A",
            Expect::Rows(n(&mut oracle.photo.iter().map(|o| {
                (50.0..=1000.0).contains(&o.velocity_sq()) && o.rowv >= 0.0 && o.colv >= 0.0
            }))),
        ),
        (
            "Q16",
            Expect::Rows(n(&mut primary.iter().map(|o| {
                (o.model_mag[I] - o.model_mag[Z]) > 2.0 && o.model_mag[Z] < 20.5
            }))),
        ),
        ("A1", groups(&mut oracle.photo.iter().map(|o| o.obj_type))),
        ("A2", Expect::Rows(galaxies.len().min(10))),
        (
            "A3",
            Expect::Rows(usize::from(oracle.object(1_000_001).is_some())),
        ),
        ("A5", groups(&mut oracle.spec.iter().map(|s| s.spec_class))),
        (
            "A6",
            Expect::Rows(distinct(
                &mut oracle
                    .spec
                    .iter()
                    .filter(|s| s.spec_class == 2)
                    .map(|s| (s.z * 10.0).floor() as i64),
            )),
        ),
        (
            "A7",
            Expect::Rows(distinct(&mut primary.iter().map(|o| o.obj_type))),
        ),
        ("A8", Expect::Scalar(flag(PhotoFlag::Saturated))),
        (
            "A9",
            Expect::Rows(n(&mut oracle.spec.iter().map(|s| qso.contains(&s.spec_class))).min(10)),
        ),
        ("A11", groups(&mut oracle.photo.iter().map(|o| o.field_id))),
        (
            "A12",
            Expect::Rows(n(&mut oracle.usno_delta.iter().map(|&d| d < 0.5))),
        ),
        (
            "A13",
            Expect::Rows(oracle.lines_per_spec.get(&3_000_001).copied().unwrap_or(0)),
        ),
        ("A15", Expect::Scalar(flag(PhotoFlag::Secondary))),
    ])
}

/// The session and its checks.
pub struct Mining {
    queries: Vec<QuerySpec>,
    expect: HashMap<&'static str, Expect>,
}

impl Mining {
    /// Prepare the 36 queries and check every plan class once.
    pub fn new(sky: &SkyServer, oracle: &Oracle) -> Result<Mining, String> {
        let queries = all_queries();
        for q in &queries {
            let class = sky
                .plan_class(&q.sql)
                .map_err(|e| format!("{}: {e}", q.id))?;
            if class != q.expected_class {
                return Err(format!(
                    "{}: plan class {class}, documented {}",
                    q.id, q.expected_class
                ));
            }
        }
        Ok(Mining {
            queries,
            expect: expectations(oracle),
        })
    }

    /// Operation types: one per query id.
    pub fn types(&self) -> Vec<String> {
        self.queries.iter().map(|q| q.id.to_string()).collect()
    }

    fn check(&self, q: &QuerySpec, result: &skyserver::ResultSet) -> Result<(), String> {
        for invariant in &q.invariants {
            invariant
                .check(result)
                .map_err(|v| format!("{}: {v}", q.id))?;
        }
        match self.expect.get(q.id) {
            Some(Expect::Rows(n)) if result.len() != *n => Err(format!(
                "{}: {} rows, the survey has {n}",
                q.id,
                result.len()
            )),
            Some(Expect::Scalar(v))
                if result.scalar().and_then(skyserver::Value::as_i64) != Some(*v) =>
            {
                Err(format!(
                    "{}: {:?}, the survey has {v}",
                    q.id,
                    result.scalar()
                ))
            }
            Some(Expect::Groups(want)) => {
                let got: BTreeMap<i64, i64> = result
                    .rows
                    .iter()
                    .filter_map(|r| Some((r.first()?.as_i64()?, r.get(1)?.as_i64()?)))
                    .collect();
                if got == *want {
                    Ok(())
                } else {
                    Err(format!("{}: groups {got:?}, the survey has {want:?}", q.id))
                }
            }
            _ => Ok(()),
        }
    }

    /// Run whole rounds until the gate closes (or one round without a
    /// gate, as the warm-up).  With the tracer armed every single-SELECT
    /// query is also replayed layer by layer and its query id kept in the
    /// phase's `sql_keys`.
    pub fn run(
        &self,
        sky: &mut SkyServer,
        seed: u64,
        gate: Option<&Gate>,
        tracer: &Tracer,
    ) -> Phase {
        let mut rng = Rng::new(seed, 1);
        let mut rec = Recorder::default();
        let clock = PhaseClock::start(gate);
        loop {
            let mut order: Vec<usize> = (0..self.queries.len()).collect();
            rng.shuffle(&mut order);
            for k in order {
                let q = &self.queries[k];
                let op = tracer.next_op();
                let engine = tracer.begin("sql.engine", None, op);
                let started = Instant::now();
                let outcome = sky.execute(&q.sql);
                let latency = started.elapsed();
                tracer.end(engine);
                let outcome = match outcome {
                    Ok(o) => o,
                    Err(e) => {
                        rec.record(k, latency, Outcome::Wrong(format!("{}: {e}", q.id)), gate);
                        continue;
                    }
                };
                let verdict = match self.check(q, &outcome.result) {
                    Ok(()) => Outcome::Ok,
                    Err(why) => Outcome::Wrong(why),
                };
                rec.record(k, latency, verdict, gate);
                if tracer.armed() {
                    count_scan(&mut rec, &outcome.stats.stats);
                    let root = tracer.begin("sql.replay", None, op);
                    match traced_select(tracer, root, op, sky, &q.sql, QueryLimits::UNLIMITED) {
                        Ok(Some(rows)) if rows.len() != outcome.result.len() => {
                            rec.note_wrong(format!(
                                "{}: the layer-by-layer replay returned {} rows, the engine {}",
                                q.id,
                                rows.len(),
                                outcome.result.len()
                            ))
                        }
                        Ok(Some(_)) => rec.sql_keys.push((op, q.id.to_string())),
                        Ok(None) => {}
                        Err(e) => rec.note_wrong(format!("{}: replay: {e}", q.id)),
                    }
                    tracer.end(root);
                }
            }
            if gate.is_none_or(Gate::done) {
                break;
            }
        }
        clock.stop(self.types(), rec)
    }
}
