//! Calls into each layer's public functions, one span per call.
//!
//! The traced run uses these to split the two end-to-end paths into their
//! layers: the cold start (generate → export → load → index → Neighbors →
//! pyramid → FK validation → statistics → publish `dr1`) and one SELECT
//! (lex → parse → plan → execute, beside the engine's own wall time).

use crate::trace::{SpanId, Tracer};
use skyserver::loader::{
    build_pyramid, compute_neighbors, ensure_load_events_table, load_csv_step, LoadStatus,
    NEIGHBOR_RADIUS_ARCMIN,
};
use skyserver::schema::{create_engine, create_indexes};
use skyserver::skygen::export_survey;
use skyserver::sql::ast::Statement;
use skyserver::sql::lexer::tokenize;
use skyserver::sql::{parse_script, Executor, Planner, QueryLimits, ResultSet};
use skyserver::{IoSimulator, SkyServer, Survey, SurveyConfig};
use std::collections::HashMap;

/// The famous-places page's query (`SkyServerSite::famous_places`).
pub const PLACES_SQL: &str =
    "select top 12 objID, ra, dec, modelMag_r from Galaxy order by modelMag_r";

/// What the traced cold start measured besides its spans.
pub struct ColdStart {
    /// CSV bytes loaded.
    pub csv_bytes: u64,
    /// CSV bytes of the PhotoObj table.
    pub photoobj_bytes: u64,
}

/// Run the builder's cold start step by step, one span per layer call.
/// Mirrors `SkyServerBuilder::build` and `load_survey`; fails on any step
/// error, rejected row or foreign-key violation.
pub fn traced_cold_start(config: &SurveyConfig, tracer: &Tracer) -> Result<ColdStart, String> {
    let root = tracer.begin("setup", None, 0);
    let survey = tracer
        .span("skygen.generate", root, 0, || {
            Survey::generate(config.clone())
        })
        .map_err(|e| format!("generate: {e}"))?;
    let mut engine = tracer
        .span("schema.create_engine", root, 0, || {
            create_engine("SkyServer")
        })
        .map_err(|e| format!("create_engine: {e}"))?;
    engine.set_simulator(IoSimulator::skyserver_production());
    let load = tracer.begin("loader.load_survey", root, 0);
    let tables = tracer.span("skygen.export_survey", load, 0, || export_survey(&survey));
    let db = engine.db_mut();
    ensure_load_events_table(db).map_err(|e| e.to_string())?;
    db.set_enforce_foreign_keys(false);
    let (mut csv_bytes, mut photoobj_bytes) = (0u64, 0u64);
    for table in &tables {
        let document = tracer.span("skygen.to_document", load, 0, || table.to_document());
        csv_bytes += document.len() as u64;
        let name = if table.name.eq_ignore_ascii_case("PhotoObj") {
            photoobj_bytes = document.len() as u64;
            "loader.load_csv.PhotoObj"
        } else {
            "loader.load_csv"
        };
        let step = tracer
            .span(name, load, 0, || load_csv_step(db, &table.name, &document))
            .map_err(|e| format!("load {}: {e}", table.name))?;
        if step.event.status != LoadStatus::Success || !step.row_errors.is_empty() {
            return Err(format!("load step for {} did not load cleanly", table.name));
        }
    }
    drop(tables);
    tracer
        .span("schema.create_indexes", load, 0, || create_indexes(db))
        .map_err(|e| format!("indexes: {e}"))?;
    let ts = db.next_timestamp();
    tracer
        .span("loader.neighbors", load, 0, || {
            compute_neighbors(db, NEIGHBOR_RADIUS_ARCMIN, ts)
        })
        .map_err(|e| format!("neighbors: {e}"))?;
    let ts = db.next_timestamp();
    tracer
        .span("loader.pyramid", load, 0, || build_pyramid(db, ts))
        .map_err(|e| format!("pyramid: {e}"))?;
    let violations = tracer.span("storage.validate_foreign_keys", load, 0, || {
        db.validate_foreign_keys()
    });
    if !violations.is_empty() {
        return Err(format!("foreign-key violations: {violations:?}"));
    }
    db.set_enforce_foreign_keys(true);
    tracer.span("storage.analyze_all", load, 0, || db.analyze_all());
    engine.set_paper_scale_factor(Some(survey.paper_scale_factor()));
    tracer.end(load);
    tracer
        .span("storage.publish_dr1", root, 0, || {
            engine.publish_release("dr1")
        })
        .map_err(|e| format!("publish: {e}"))?;
    let count = tracer
        .span("setup.first_query", root, 0, || {
            engine.query("select count(*) from PhotoObj")
        })
        .map_err(|e| format!("first query: {e}"))?;
    tracer.end(root);
    let loaded = count.scalar().and_then(skyserver::Value::as_i64);
    if loaded != Some(survey.photo.objects.len() as i64) {
        return Err(format!(
            "loaded {loaded:?} PhotoObj rows, generated {}",
            survey.photo.objects.len()
        ));
    }
    Ok(ColdStart {
        csv_bytes,
        photoobj_bytes,
    })
}

/// Lex, parse, plan and execute a single-SELECT script with one span per
/// step, on the release its `AS OF` names (the head without one), and
/// return its rows.  Returns `Ok(None)` for scripts that are not a single
/// SELECT (DECLARE/SET scripts).
pub fn traced_select(
    tracer: &Tracer,
    parent: Option<SpanId>,
    op: u64,
    sky: &SkyServer,
    sql: &str,
    limits: QueryLimits,
) -> Result<Option<ResultSet>, String> {
    tracer
        .span("sql.lex", parent, op, || tokenize(sql))
        .map_err(|e| format!("lex: {e:?}"))?;
    let statements = tracer
        .span("sql.parse", parent, op, || parse_script(sql))
        .map_err(|e| format!("parse: {e}"))?;
    let [Statement::Select(select)] = statements.as_slice() else {
        return Ok(None);
    };
    let release = select.as_of.as_deref();
    let engine = sky.engine();
    let db = engine.db_for(release).map_err(|e| e.to_string())?;
    let planner = Planner::new(db, engine.functions())
        .with_release(release.map(str::to_string))
        .with_known_releases(engine.release_names());
    let plan = tracer
        .span("sql.plan", parent, op, || planner.plan_select(select))
        .map_err(|e| format!("plan: {e}"))?;
    let variables = HashMap::new();
    let executor = Executor::new(db, engine.functions(), &variables, limits);
    let executed = tracer
        .span("sql.execute", parent, op, || executor.execute_select(&plan))
        .map_err(|e| format!("execute: {e}"))?;
    Ok(Some(executed.result))
}
