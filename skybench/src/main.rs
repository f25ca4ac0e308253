//! The SkyServer benchmark: three closed-loop workloads at Personal scale
//! (60,513 PhotoObj rows), measured end to end and, in a traced run, layer
//! by layer.
//!
//! ```console
//! $ cargo run --release --offline -q --manifest-path skybench/Cargo.toml -- \
//!       --workload web_browse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones.  `--scale tiny` runs every
//! output check on the Tiny survey in seconds.  See README.md.

mod browse;
mod churn;
mod client;
mod harness;
mod layers;
mod mining;
mod oracle;
mod pages;
mod stats;
mod trace;

use browse::{Browse, WebCtx};
use client::{encode, Client};
use harness::{Gate, Phase, MIN_OPS};
use oracle::Oracle;
use skyserver::{SkyServer, SkyServerBuilder, Survey, SurveyConfig};
use skyserver_web::{HttpServer, SkyServerSite};
use stats::{median, status_mb};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use trace::{SpanTable, Tracer};

/// Cold starts per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop clients of `web_browse` (no more than the machine's 2 CPUs).
const CLIENTS: usize = 2;

const WORKLOADS: [&str; 3] = ["web_browse", "sql_mining", "release_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    config: SurveyConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0, false);
    let mut config = SurveyConfig::personal_skyserver();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of web_browse, sql_mining, release_churn")),
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("in (0, 60]"));
                }
            }
            "--trace" => trace = value == "1",
            "--scale" => {
                config = match value.as_str() {
                    "tiny" => SurveyConfig::tiny(),
                    "personal" => SurveyConfig::personal_skyserver(),
                    _ => return Err(bad("tiny or personal")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        config,
    })
}

/// The served catalog: a session for `sql_mining`, a site over TCP for the
/// web workloads.
enum Served {
    Session(Box<SkyServer>),
    Site {
        site: Arc<SkyServerSite>,
        server: HttpServer,
        /// A copy-on-write fork of the served catalog for in-process layer
        /// calls (taken outside the timed set-up).
        mirror: RwLock<Arc<SkyServer>>,
    },
}

/// One cold start: generate → load → index → stats → publish `dr1` →
/// first request answered.  Returns its wall time.
fn cold_start(config: &SurveyConfig, web: bool) -> Result<(Duration, Served), String> {
    let started = Instant::now();
    let mut sky = SkyServerBuilder::new()
        .with_config(config.clone())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let built = started.elapsed();
    // SpecObj rather than PhotoObj: at Personal scale a public
    // `count(*)` over PhotoObj exceeds the 64 MiB query memory budget.
    let rows = sky.counts().spec_obj as f64;
    let count_sql = "select count(*) from SpecObj";
    if !web {
        let answer = sky.execute(count_sql).map_err(|e| e.to_string())?;
        let elapsed = started.elapsed();
        if answer.result.scalar().and_then(skyserver::Value::as_f64) != Some(rows) {
            return Err("the first query miscounts SpecObj".into());
        }
        return Ok((elapsed, Served::Session(Box::new(sky))));
    }
    let mirror = RwLock::new(Arc::new(sky.fork()));
    let resumed = Instant::now();
    let site = SkyServerSite::new(sky);
    let server = site.serve(0).map_err(|e| format!("serve: {e}"))?;
    let reply = Client::new(server.addr())
        .get(&format!(
            "/en/tools/search/x_sql?cmd={}&format=csv",
            encode(count_sql)
        ))
        .map_err(|e| format!("first request: {e}"))?;
    let elapsed = built + resumed.elapsed();
    if reply.status != 200
        || reply
            .body
            .lines()
            .nth(1)
            .and_then(|v| v.parse::<f64>().ok())
            != Some(rows)
    {
        return Err(format!(
            "the first request answered {} {:?}",
            reply.status, reply.body
        ));
    }
    Ok((
        elapsed,
        Served::Site {
            site,
            server,
            mirror,
        },
    ))
}

/// Per-layer metric list: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn pct(worse: f64, base: f64) -> f64 {
    if base > 0.0 {
        (worse / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Engine wall time against the time its parse/plan/execute spans cover,
/// per query key that ran at least twice: `key -> (engine ns, covered ns)`.
/// The engine call and the layer-by-layer replay are two executions of the
/// query, so each side is the fastest of the key's runs; a query that ran
/// once has no such floor and is left out.
fn sql_coverage(spans: &[trace::Span], keys: &[(u64, String)]) -> BTreeMap<String, (f64, f64)> {
    let mut per_op: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in spans {
        let entry = per_op.entry(s.op).or_default();
        match s.name.as_str() {
            "sql.engine" => entry.0 += s.nanos() as f64,
            // `parse_script` tokenizes itself, so the separate `sql.lex`
            // span is already inside `sql.parse`'s share.
            "sql.parse" | "sql.plan" | "sql.execute" => entry.1 += s.nanos() as f64,
            _ => {}
        }
    }
    let mut per_key: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (op, key) in keys {
        if let Some(&(engine, covered)) = per_op.get(op) {
            let e = per_key
                .entry(key.clone())
                .or_insert((0, f64::INFINITY, f64::INFINITY));
            e.0 += 1;
            e.1 = e.1.min(engine);
            e.2 = e.2.min(covered);
        }
    }
    per_key
        .into_iter()
        .filter(|(_, v)| v.0 >= 2 && v.1 > 0.0)
        .map(|(key, v)| (key, (v.1, v.2)))
        .collect()
}

/// Metrics only `release_churn` produces: on the other workloads they
/// would read a constant 0.
const CHURN_ONLY: [&str; 7] = [
    "web.handle_ms.x_sql_as_of",
    "web.cache_entries_dropped_per_publish",
    "core.fork_ms",
    "storage.insert_after_fork_ms",
    "web.admin_write_ms",
    "storage.publish_ms",
    "storage.rss_growth_mb_per_release",
];

/// Every per-layer metric, from the traced phase's spans and counters and
/// the untraced phase's web counters.
fn layer_metrics(
    tracer: &Tracer,
    cold: &layers::ColdStart,
    plain: &Phase,
    traced: &Phase,
    plain_web: &BTreeMap<&str, f64>,
    setup: (f64, f64),
    churn: bool,
) -> Metrics {
    let spans = tracer.spans();
    let t = SpanTable::new(&spans);
    let (s, ms_, us) = (1e9, 1e6, 1e3);
    let c = |rec: &harness::Recorder, name: &str| rec.counters.get(name).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let tc = &traced.rec;
    let statements = c(tc, "sql.statements");
    let coverage = sql_coverage(&spans, &tc.sql_keys);
    let unattributed: Vec<f64> = coverage.values().map(|(e, cov)| (e - cov) / ms_).collect();
    let uncovered: Vec<f64> = coverage.values().map(|(e, cov)| (e - cov) / e).collect();
    let load_s = t.total("loader.load_survey", s);
    let handles: Vec<f64> = t
        .durations
        .iter()
        .filter(|(k, _)| k.starts_with("web.handle."))
        .flat_map(|(_, v)| v.iter().map(|ns| ns / ms_))
        .collect();
    let dist = |name: &str| plain.rec.distributions.get(name).map_or(0.0, |v| median(v));
    let traced_dist = |name: &str| {
        traced
            .rec
            .distributions
            .get(name)
            .map_or(0.0, |v| median(v))
    };
    let publishes = c(&plain.rec, "admin.publishes");
    let mut m: Metrics = vec![
        (
            "skygen.generate_s".into(),
            t.total("skygen.generate", s),
            "s",
        ),
        (
            "skygen.export_csv_s".into(),
            t.total("skygen.export_survey", s) + t.total("skygen.to_document", s),
            "s",
        ),
        (
            "loader.csv_load_s".into(),
            t.total("loader.load_csv", s) + t.total("loader.load_csv.PhotoObj", s),
            "s",
        ),
        (
            "loader.photoobj_load_s".into(),
            t.total("loader.load_csv.PhotoObj", s),
            "s",
        ),
        (
            "loader.photoobj_csv_mb".into(),
            cold.photoobj_bytes as f64 / 1e6,
            "MB",
        ),
        (
            "loader.neighbors_s".into(),
            t.total("loader.neighbors", s),
            "s",
        ),
        ("loader.pyramid_s".into(), t.total("loader.pyramid", s), "s"),
        (
            "loader.mb_per_hour".into(),
            per(cold.csv_bytes as f64 / 1e6 * 3600.0, load_s),
            "MB/h",
        ),
        (
            "schema.index_build_s".into(),
            t.total("schema.create_indexes", s),
            "s",
        ),
        (
            "storage.fk_validate_s".into(),
            t.total("storage.validate_foreign_keys", s),
            "s",
        ),
        (
            "storage.analyze_s".into(),
            t.total("storage.analyze_all", s),
            "s",
        ),
        (
            "storage.publish_dr1_ms".into(),
            t.total("storage.publish_dr1", ms_),
            "ms",
        ),
        (
            "setup.unattributed_s".into(),
            t.self_total("setup", s) + t.self_total("loader.load_survey", s),
            "s",
        ),
        ("sql.lex_us".into(), t.median("sql.lex", us), "us"),
        ("sql.parse_us".into(), t.median("sql.parse", us), "us"),
        ("sql.plan_us".into(), t.median("sql.plan", us), "us"),
        ("sql.execute_ms".into(), t.median("sql.execute", ms_), "ms"),
        ("sql.unattributed_ms".into(), median(&unattributed), "ms"),
        ("sql.uncovered_share".into(), median(&uncovered), "ratio"),
        (
            "sql.rows_examined_per_row_returned".into(),
            per(c(tc, "sql.rows_examined"), c(tc, "sql.rows_returned")),
            "ratio",
        ),
        (
            "sql.predicates_evaluated".into(),
            per(c(tc, "sql.predicates_evaluated"), statements),
            "count",
        ),
        (
            "storage.index_seeks".into(),
            per(c(tc, "storage.index_seeks"), statements),
            "count",
        ),
        (
            "storage.segments_pruned".into(),
            per(c(tc, "storage.segments_pruned"), statements),
            "count",
        ),
        (
            "storage.bytes_scanned".into(),
            per(c(tc, "storage.bytes_scanned"), statements),
            "B",
        ),
        ("htm.cover_us".into(), t.median("htm.cover", us), "us"),
        (
            "htm.trixels_per_cover".into(),
            per(c(tc, "htm.trixels"), c(tc, "htm.covers")),
            "count",
        ),
        (
            "htm.ranges_per_cover".into(),
            per(c(tc, "htm.ranges"), c(tc, "htm.covers")),
            "count",
        ),
        ("core.nearby_ms".into(), t.median("core.nearby", ms_), "ms"),
        (
            "core.explore_ms".into(),
            t.median("core.explore", ms_),
            "ms",
        ),
        (
            "core.places_query_ms".into(),
            t.median("core.places_query", ms_),
            "ms",
        ),
        (
            "web.parse_request_us".into(),
            t.median("web.parse_request", us),
            "us",
        ),
        ("web.handle_ms".into(), median(&handles), "ms"),
    ];
    for route in &browse::ROUTES[..9] {
        m.push((
            format!("web.handle_ms.{route}"),
            t.median(&format!("web.handle.{route}"), ms_),
            "ms",
        ));
    }
    let lookups = plain_web["hits"] + plain_web["misses"];
    m.extend([
        ("web.render_ms".into(), t.median("web.render", ms_), "ms"),
        (
            "web.transport_ms".into(),
            traced_dist("web.transport_ms"),
            "ms",
        ),
        (
            "web.reconnects".into(),
            per(
                c(&plain.rec, "web.reconnects") * 1000.0,
                plain.rec.attempted as f64,
            ),
            "1/kop",
        ),
        (
            "web.first_request_ms".into(),
            dist("web.first_request_ms"),
            "ms",
        ),
        (
            "web.result_cache_hit_ratio".into(),
            per(plain_web["hits"], lookups),
            "ratio",
        ),
        ("web.result_cache_hits".into(), plain_web["hits"], "count"),
        ("web.result_cache_lookups".into(), lookups, "count"),
        (
            "web.cache_entries_dropped_per_publish".into(),
            per(c(&plain.rec, "web.cache_entries_dropped"), publishes),
            "count",
        ),
        ("web.governor_shed".into(), plain_web["shed"], "count"),
        ("core.fork_ms".into(), t.median("core.fork", ms_), "ms"),
        (
            "storage.insert_after_fork_ms".into(),
            t.median("storage.insert_after_fork", ms_),
            "ms",
        ),
        (
            "web.admin_write_ms".into(),
            t.median("web.admin_write", ms_),
            "ms",
        ),
        (
            "storage.publish_ms".into(),
            t.median("storage.publish", ms_),
            "ms",
        ),
        (
            "storage.rss_growth_mb_per_release".into(),
            per(c(&plain.rec, "storage.rss_growth_mb"), publishes),
            "MB",
        ),
    ]);
    let (e_plain, e_traced) = (plain.end_to_end(), traced.end_to_end());
    m.push((
        "trace.overhead_ops_per_s_pct".into(),
        pct(e_plain[0].1, e_traced[0].1),
        "%",
    ));
    for (i, name) in [
        (1, "p50_ms"),
        (3, "optype_geomean_ms"),
        (4, "cpu_ms_per_op"),
    ] {
        m.push((
            format!("trace.overhead_{name}_pct"),
            pct(e_traced[i].1, e_plain[i].1),
            "%",
        ));
    }
    m.push((
        "trace.overhead_setup_s_pct".into(),
        pct(setup.1, setup.0),
        "%",
    ));
    if !churn {
        m.retain(|(name, ..)| !CHURN_ONLY.contains(&name.as_str()));
    }
    m
}

/// Cache and governor counters over a phase.
fn web_counters(site: Option<&SkyServerSite>) -> BTreeMap<&'static str, f64> {
    match site {
        Some(site) => {
            let cache = site.cache_stats();
            BTreeMap::from([
                ("hits", cache.hits as f64),
                ("misses", cache.misses as f64),
                ("shed", site.governor().stats().shed as f64),
            ])
        }
        None => BTreeMap::from([("hits", 0.0), ("misses", 0.0), ("shed", 0.0)]),
    }
}

fn delta(
    after: &BTreeMap<&'static str, f64>,
    before: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    after.iter().map(|(k, v)| (*k, v - before[k])).collect()
}

/// One workload's phases over a served catalog.
struct Runner<'a> {
    args: &'a Args,
    oracle: &'a Oracle,
    tracer: &'a Tracer,
    quiet: &'a Tracer,
}

impl Runner<'_> {
    /// Warm up, then run the timed phase(s): the untraced one, and with
    /// `--trace 1` a traced one after it.  Each traced-run phase lasts half
    /// the run.  Returns `(untraced, traced, untraced web counters)`.
    #[allow(clippy::type_complexity)]
    fn run(
        &self,
        served: &mut Served,
    ) -> Result<(Phase, Option<Phase>, BTreeMap<&'static str, f64>), String> {
        let a = self.args;
        // A traced run reports no p99, so its phases need no minimum count.
        let (length, min_ops) = if a.trace {
            (a.seconds / 2.0, 0)
        } else {
            (a.seconds, MIN_OPS)
        };
        match served {
            Served::Session(sky) => {
                let mining = mining::Mining::new(sky, self.oracle)?;
                mining.run(sky, a.seed ^ 0xFFFF, None, self.quiet);
                let plain = mining.run(sky, a.seed, Some(&Gate::new(length, min_ops)), self.quiet);
                let traced = a.trace.then(|| {
                    mining.run(
                        sky,
                        a.seed.wrapping_add(1),
                        Some(&Gate::new(length, 0)),
                        self.tracer,
                    )
                });
                Ok((plain, traced, web_counters(None)))
            }
            Served::Site {
                site,
                server,
                mirror,
            } => {
                let canned = match a.workload.as_str() {
                    "web_browse" => pages::canned(self.oracle),
                    _ => pages::churn_canned(self.oracle),
                };
                let extra = RwLock::new(Vec::new());
                let browse = Browse::new(self.oracle, a.seed);
                let addr = server.addr();
                let ctx = |tracer| WebCtx {
                    site,
                    mirror,
                    oracle: self.oracle,
                    canned: &canned,
                    extra: &extra,
                    tracer,
                };
                let phase =
                    |ctx: &WebCtx<'_>, seed: u64, gate: Option<&Gate>| match a.workload.as_str() {
                        "web_browse" => browse.run(addr, ctx, seed, gate, CLIENTS),
                        _ => churn::run(addr, ctx, &browse, seed, gate),
                    };
                phase(&ctx(self.quiet), a.seed ^ 0xFFFF, None);
                let before = web_counters(Some(site));
                let plain = phase(&ctx(self.quiet), a.seed, Some(&Gate::new(length, min_ops)));
                let counters = delta(&web_counters(Some(site)), &before);
                let traced = a.trace.then(|| {
                    phase(
                        &ctx(self.tracer),
                        a.seed.wrapping_add(1),
                        Some(&Gate::new(length, 0)),
                    )
                });
                Ok((plain, traced, counters))
            }
        }
    }
}

fn report(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &'static str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn install_panic_hook() {
    // The storage fault behind the reversed-range searches panics on every
    // such request; print each distinct panic once, not once per request.
    let seen = std::sync::Mutex::new(std::collections::HashSet::new());
    std::panic::set_hook(Box::new(move |info| {
        let place = info.location().map_or(String::new(), |l| l.to_string());
        if seen.lock().is_ok_and(|mut s| s.insert(place.clone())) {
            eprintln!("panic at {place}: {info}");
        }
    }));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skybench: {e}\nusage: skybench --workload <web_browse|sql_mining|release_churn> --seed <n> --seconds <s> --trace <0|1> [--scale tiny|personal]");
            std::process::exit(2);
        }
    };
    install_panic_hook();
    if let Err(e) = run(&args) {
        eprintln!("skybench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let web = args.workload != "sql_mining";
    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    // Set-up: several untraced cold starts (median), or in the traced run
    // one cold start layer by layer beside one untraced.
    let mut setup_times = Vec::new();
    let mut served = None;
    let mut cold = None;
    if args.trace {
        let started = Instant::now();
        cold = Some(layers::traced_cold_start(&args.config, &tracer)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(served.take());
        let (elapsed, s) = cold_start(&args.config, web)?;
        setup_times.push(elapsed.as_secs_f64());
        served = Some(s);
    }
    let mut served = served.expect("at least one cold start ran");
    let survey =
        Survey::generate(args.config.clone()).map_err(|e| format!("oracle survey: {e}"))?;
    let oracle = Oracle::new(survey);
    let runner = Runner {
        args,
        oracle: &oracle,
        tracer: &tracer,
        quiet: &quiet,
    };
    let (plain, traced, web_counts) = runner.run(&mut served)?;
    let peak_rss = status_mb("VmHWM");
    let mut wrong: Vec<String> = plain.rec.wrong.clone();
    let (mut attempted, mut failed) = (plain.rec.attempted, plain.rec.failed);
    if let Some(t) = &traced {
        wrong.extend(t.rec.wrong.iter().cloned());
        attempted += t.rec.attempted;
        failed += t.rec.failed;
    }
    for w in wrong.iter().take(5) {
        eprintln!("wrong answer: {w}");
    }
    let ops = plain.rec.samples.len() as u64;
    if ops < MIN_OPS && !args.trace {
        eprintln!(
            "note: only {ops} operations completed; the p99 has fewer than ten samples above it"
        );
    }
    let metrics: Metrics = match (&traced, &cold) {
        (Some(traced), Some(cold)) => {
            let m = layer_metrics(
                &tracer,
                cold,
                &plain,
                traced,
                &web_counts,
                (setup_times[1], setup_times[0]),
                args.workload == "release_churn",
            );
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
            print_uncovered(&tracer, &traced.rec.sql_keys);
            m
        }
        _ => {
            let mut m: Metrics = vec![("setup_s".to_string(), median(&setup_times), "s")];
            m.extend(
                plain
                    .end_to_end()
                    .into_iter()
                    .map(|(n, v, u)| (n.to_string(), v, u)),
            );
            m.push(("peak_rss_mb".to_string(), peak_rss, "MB"));
            m
        }
    };
    eprintln!(
        "{}: {} ops in {:.1} s; setups {:?} s; op-type medians (ms) {:?}",
        args.workload,
        plain.rec.attempted,
        plain.wall.as_secs_f64(),
        setup_times,
        plain.type_medians()
    );
    if let Served::Site { server, .. } = served {
        server.stop();
    }
    let correct = wrong.is_empty();
    report(correct, attempted, failed, &metrics);
    if correct {
        Ok(())
    } else {
        Err("some answers were wrong".into())
    }
}

/// Print, for each single-SELECT query that ran at least twice, the share
/// of its engine wall time the lex/parse/plan/execute spans leave
/// uncovered (fastest run against fastest replay).
fn print_uncovered(tracer: &Tracer, keys: &[(u64, String)]) {
    let coverage = sql_coverage(&tracer.spans(), keys);
    if coverage.is_empty() {
        return;
    }
    eprintln!("uncovered share of engine wall time per single-SELECT query:");
    for (key, (engine, covered)) in coverage {
        eprintln!("  {:6.3}  {key}", (engine - covered) / engine);
    }
}
