//! `release_churn`: reads beside writes.  One keep-alive client reads
//! (explorer, canned searches, cone, an `AS OF dr1` query) while one
//! in-process admin thread inserts a seeded batch of new PhotoObj rows
//! through `SkyServerSite::with_admin` and publishes it as the next `drN`.
//!
//! The admin publishes on a fixed schedule, [`PUBLISHES`] times per timed
//! phase, so every run holds the same number of releases in memory whatever
//! the read rate.

use crate::browse::{route_index, Browse, WebCtx};
use crate::client::Client;
use crate::harness::{Gate, Outcome, Phase, PhaseClock, Recorder};
use crate::pages::{Page, Placed};
use crate::stats::{status_mb, Rng};
use skyserver::htm::{lookup_id, SDSS_DEPTH};
use skyserver::{SkyServer, Value};
use skyserver_web::parse_request;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Releases published per timed phase.
pub const PUBLISHES: usize = 8;
/// New PhotoObj rows per release.
pub const BATCH: usize = 10;

/// `(page kind, reads per round)`: 100 reads.
const READS: &[(&str, usize)] = &[
    ("explore", 20),
    ("api_object", 20),
    ("canned", 25),
    ("cone", 20),
    ("as_of", 15),
];

/// The reader's next page.
fn read_page(kind: &str, browse: &Browse, ctx: &WebCtx<'_>, rng: &mut Rng) -> Page {
    match kind {
        "explore" => Page::Explore("en", browse.explorer_id(rng)),
        "api_object" => Page::ApiObject(browse.explorer_id(rng)),
        "canned" => Page::Canned(rng.below(ctx.canned.len())),
        "cone" => {
            let (ra, dec) = Browse::position(ctx.oracle, rng);
            Page::Cone {
                ra,
                dec,
                radius: 2.0 + 8.0 * rng.unit(),
            }
        }
        _ => Page::AsOf,
    }
}

/// GET `path` in-process (outside the timed operations).
fn local_get(ctx: &WebCtx<'_>, path: &str) -> (u16, String) {
    let request = parse_request(&Client::head(path)).expect("the client's request heads parse");
    let response = ctx.site.handle(&request);
    (
        response.status,
        String::from_utf8_lossy(&response.body).into_owned(),
    )
}

/// The rows the admin inserts for release `k`: copies of seeded survey
/// objects moved 1–2° north of the footprint, where no reader's cone
/// reaches, under fresh ids.
fn new_rows(
    sky: &SkyServer,
    ctx: &WebCtx<'_>,
    rng: &mut Rng,
    first_id: i64,
) -> Result<Vec<(Vec<Value>, Placed)>, String> {
    let base: Vec<i64> = (0..BATCH)
        .map(|_| ctx.oracle.photo[rng.below(ctx.oracle.photo.len())].obj_id)
        .collect();
    let list = base
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let result = sky
        .query(&format!("select * from PhotoObj where objID in ({list})"))
        .map_err(|e| e.to_string())?;
    let col = |name: &str| {
        result
            .column_index(name)
            .ok_or(format!("PhotoObj lacks {name}"))
    };
    let (c_id, c_parent, c_ra, c_dec) = (col("objID")?, col("parentID")?, col("ra")?, col("dec")?);
    let (c_cx, c_cy, c_cz, c_htm) = (col("cx")?, col("cy")?, col("cz")?, col("htmID")?);
    let north = ctx.oracle.max_dec() + 1.0;
    let mut rows = Vec::new();
    for (i, id) in base.iter().enumerate() {
        let mut row = result
            .rows
            .iter()
            .find(|r| r[c_id].as_i64() == Some(*id))
            .ok_or(format!("object {id} is missing from the head"))?
            .clone();
        let new_id = first_id + i as i64;
        let ra = row[c_ra].as_f64().unwrap_or(180.0);
        let dec = north + rng.unit();
        let (r, d) = (ra.to_radians(), dec.to_radians());
        row[c_id] = Value::Int(new_id);
        row[c_parent] = Value::Int(0);
        row[c_dec] = Value::Float(dec);
        row[c_cx] = Value::Float(d.cos() * r.cos());
        row[c_cy] = Value::Float(d.cos() * r.sin());
        row[c_cz] = Value::Float(d.sin());
        row[c_htm] = Value::Int(lookup_id(ra, dec, SDSS_DEPTH) as i64);
        rows.push((row, (new_id, ra, dec)));
    }
    Ok(rows)
}

/// One release the admin published: its name and its new objects.
struct Published {
    name: String,
    placed: Vec<Placed>,
}

/// Publish [`PUBLISHES`] releases on schedule.  Only the writes run during
/// the phase; [`verify`] checks the releases after it.
fn admin(ctx: &WebCtx<'_>, seed: u64, gate: &Gate, rec: &mut Recorder) -> Vec<Published> {
    let tracer = ctx.tracer;
    let mut rng = Rng::new(seed, 3);
    // Earlier phases of the run may have published already.
    let earlier = ctx
        .extra
        .read()
        .expect("readers do not panic holding the list")
        .len();
    let mut next_id = ctx.oracle.max_obj_id() + 1 + earlier as i64;
    let releases = release_names(ctx).len();
    let rss_before = status_mb("VmRSS");
    let mut published = Vec::new();
    for k in 0..PUBLISHES {
        let due = (k as f64 + 0.5) * gate.seconds() / PUBLISHES as f64;
        std::thread::sleep(Duration::from_secs_f64((due - gate.elapsed()).max(0.0)));
        let name = format!("dr{}", releases + k + 1);
        let entries_before = ctx.site.cache_stats().entries;
        let op = tracer.next_op();
        let span = tracer.begin("web.admin_write", None, op);
        let started = Instant::now();
        let written = ctx.site.with_admin(|sky| -> Result<Vec<Placed>, String> {
            tracer.span("core.fork", span, op, || drop(sky.fork()));
            let rows = new_rows(sky, ctx, &mut rng, next_id)?;
            let placed = rows.iter().map(|r| r.1).collect();
            let insert = tracer.begin("storage.insert_after_fork", span, op);
            for (row, _) in rows {
                sky.engine_mut()
                    .db_mut()
                    .insert("PhotoObj", row)
                    .map_err(|e| e.to_string())?;
            }
            tracer.end(insert);
            tracer
                .span("storage.publish", span, op, || sky.publish_release(&name))
                .map_err(|e| e.to_string())?;
            *ctx.mirror
                .write()
                .expect("readers do not panic holding the mirror") = Arc::new(sky.fork());
            Ok(placed)
        });
        let latency = started.elapsed();
        tracer.end(span);
        rec.add(
            "web.cache_entries_dropped",
            entries_before.saturating_sub(ctx.site.cache_stats().entries) as f64,
        );
        match written {
            Ok(placed) => {
                rec.record(
                    route_index("admin_publish"),
                    latency,
                    Outcome::Ok,
                    Some(gate),
                );
                next_id += BATCH as i64;
                ctx.extra
                    .write()
                    .expect("readers do not panic holding the list")
                    .extend(placed.iter().copied());
                published.push(Published { name, placed });
            }
            Err(e) => rec.record(
                route_index("admin_publish"),
                latency,
                Outcome::Wrong(format!("publish {name}: {e}")),
                Some(gate),
            ),
        }
    }
    rec.add("storage.rss_growth_mb", status_mb("VmRSS") - rss_before);
    rec.add("admin.publishes", PUBLISHES as f64);
    published
}

/// Names listed by `/api/v1/releases`, oldest first.
fn release_names(ctx: &WebCtx<'_>) -> Vec<String> {
    let (_, body) = local_get(ctx, "/api/v1/releases");
    body.split("\"name\":\"")
        .skip(1)
        .filter_map(|s| s.split('"').next().map(str::to_string))
        .collect()
}

/// Check every release of the phase; releases are immutable, so checking
/// them after the phase sees what the readers saw.
/// * Each one holds the previous release's PhotoObj rows plus the batch.
/// * Each one serves its new ids with their ra and dec.
/// * The release list grew by exactly these names, in order.
fn verify(ctx: &WebCtx<'_>, published: &[Published], rec: &mut Recorder) {
    let mirror = ctx
        .mirror
        .read()
        .expect("readers do not panic holding the mirror")
        .clone();
    let extra = ctx
        .extra
        .read()
        .expect("readers do not panic holding the list");
    let mut want = ctx.oracle.photo.len() + extra.len() - BATCH * published.len();
    for release in published {
        want += BATCH;
        // Counted unlimited on the mirror: a public `count(*)` over
        // PhotoObj exceeds the query memory budget.
        let counted = mirror
            .query(&format!(
                "select count(*) from PhotoObj as of {}",
                release.name
            ))
            .map(|r| r.scalar().and_then(Value::as_i64));
        if counted != Ok(Some(want as i64)) {
            rec.note_wrong(format!(
                "{} counts {counted:?} PhotoObj rows, expected {want}",
                release.name
            ));
        }
        for &(id, _, _) in &release.placed {
            let (status, body) = local_get(
                ctx,
                &format!("/api/v1/objects/{id}?release={}", release.name),
            );
            let reply = crate::client::Reply {
                status,
                body,
                fresh_connection: false,
            };
            if let Outcome::Wrong(why) =
                Page::ApiObject(id).check(&reply, ctx.oracle, ctx.canned, &extra)
            {
                rec.note_wrong(format!("{}: {why}", release.name));
            }
        }
    }
    let names = release_names(ctx);
    let tail = &names[names.len().saturating_sub(published.len())..];
    if tail.iter().ne(published.iter().map(|p| &p.name)) {
        rec.note_wrong(format!(
            "/api/v1/releases ends {tail:?} after publishing {}",
            published.len()
        ));
    }
}

/// Run the reader for whole rounds until the gate closes and every
/// release is published (one round without a gate, as the warm-up), then
/// check the releases.
pub fn run(
    addr: SocketAddr,
    ctx: &WebCtx<'_>,
    browse: &Browse,
    seed: u64,
    gate: Option<&Gate>,
) -> Phase {
    let clock = PhaseClock::start(gate);
    let done_publishing = AtomicBool::new(gate.is_none());
    let (rec, published) = std::thread::scope(|scope| {
        let writer = gate.map(|gate| {
            let done_publishing = &done_publishing;
            scope.spawn(move || {
                let mut rec = Recorder::default();
                let published = admin(ctx, seed, gate, &mut rec);
                done_publishing.store(true, Ordering::Release);
                (rec, published)
            })
        });
        let mut rng = Rng::new(seed, 4);
        let mut client = Client::new(addr);
        let mut rec = Recorder::default();
        let mut as_of_body: Option<String> = None;
        loop {
            let mut kinds: Vec<&str> = READS
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            rng.shuffle(&mut kinds);
            for kind in kinds {
                let page = read_page(kind, browse, ctx, &mut rng);
                let body = ctx.visit(&mut client, &page, &mut rec, gate);
                if let (Page::AsOf, Some(body)) = (&page, body) {
                    // Releases are immutable: every AS OF dr1 answer of the
                    // run is the same bytes.
                    match &as_of_body {
                        None => as_of_body = Some(body),
                        Some(first) if *first != body => {
                            rec.note_wrong("the AS OF dr1 answer changed during the run".into())
                        }
                        Some(_) => {}
                    }
                }
            }
            if gate.is_none_or(Gate::done) && done_publishing.load(Ordering::Acquire) {
                break;
            }
        }
        rec.add("web.reconnects", client.reconnects as f64);
        let mut published = Vec::new();
        if let Some(writer) = writer {
            let (admin_rec, p) = writer.join().expect("the admin thread panicked");
            rec.merge(admin_rec);
            published = p;
        }
        (rec, published)
    });
    let mut phase = clock.stop(
        crate::browse::ROUTES
            .iter()
            .map(|r| r.to_string())
            .collect(),
        rec,
    );
    verify(ctx, &published, &mut phase.rec);
    phase
}
