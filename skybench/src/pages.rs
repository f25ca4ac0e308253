//! The public site's pages as benchmark operations: the request path, the
//! check of the answer against the oracle, and the traced in-process replay
//! that splits one request into its layers.

use crate::client::{encode, Reply};
use crate::harness::{Outcome, Recorder};
use crate::layers::{traced_select, PLACES_SQL};
use crate::oracle::{Oracle, G, R, U};
use crate::trace::Tracer;
use skyserver::htm::{cover, Convex};
use skyserver::skygen::PhotoFlag;
use skyserver::sql::QueryLimits;
use skyserver::SkyServer;
use skyserver_web::{parse_request, OutputFormat, SkyServerSite};
use std::time::Instant;

/// One request of the public site.
#[derive(Debug, Clone)]
pub enum Page {
    /// A language branch's home page (`en`, `jp`, `de`).
    Home(&'static str),
    /// The schema browser.
    Help,
    /// The famous-places gallery (an uncached query).
    Places,
    /// The legacy navigator at a zoom level (radius 60'/2^zoom).
    Navi { ra: f64, dec: f64, zoom: u32 },
    /// `/api/v1/cone` at the same radii as the navigator.
    Cone { ra: f64, dec: f64, radius: f64 },
    /// The legacy object explorer in a language branch.
    Explore(&'static str, i64),
    /// `/api/v1/objects/{id}`.
    ApiObject(i64),
    /// A canned sample count query (index into [`canned`]).
    Canned(usize),
    /// A parameterised id-range search that never repeats.
    IdRange(i64, i64),
    /// An id range with reversed `BETWEEN` bounds (fails today: the empty
    /// index range panics inside the storage layer).
    Reversed,
    /// A query pinned to release `dr1` with `AS OF`.
    AsOf,
}

/// An object published after the load: `(objID, ra, dec)`.
pub type Placed = (i64, f64, f64);

/// The reversed-bounds search, with fixed inputs.
const REVERSED_SQL: &str =
    "select objID, ra, dec from PhotoObj where objID between 1000100 and 1000001";

/// The `AS OF dr1` search.
const AS_OF_SQL: &str = "select top 20 objID, ra, dec from Galaxy order by modelMag_r as of dr1";

/// A canned sample query and its answer computed from the survey.
pub struct Canned {
    /// SQL text.
    pub sql: String,
    /// `count(*)` the oracle computed.
    pub expected: i64,
}

/// The canned sample searches (8 entries: they fit the 128-entry result
/// cache).  Each is restricted to the survey's ids, so rows a release
/// publishes later never change the answer.
pub fn canned(oracle: &Oracle) -> Vec<Canned> {
    let max = oracle.max_obj_id();
    let count = |it: &mut dyn Iterator<Item = bool>| it.filter(|&b| b).count() as i64;
    let saturated = PhotoFlag::Saturated as i64;
    let galaxies: Vec<_> = oracle.galaxies().collect();
    let stars: Vec<_> = oracle.stars().collect();
    let primary: Vec<_> = oracle.primary().collect();
    vec![
        Canned {
            sql: format!("select count(*) from Galaxy where modelMag_r < 18 and objID <= {max}"),
            expected: count(&mut galaxies.iter().map(|o| o.model_mag[R] < 18.0)),
        },
        Canned {
            sql: format!("select count(*) from Star where modelMag_g < 19 and objID <= {max}"),
            expected: count(&mut stars.iter().map(|o| o.model_mag[G] < 19.0)),
        },
        Canned {
            sql: format!("select count(*) from PhotoObj where type = 3 and objID <= {max}"),
            expected: count(&mut oracle.photo.iter().map(|o| o.obj_type == 3)),
        },
        Canned {
            sql: format!(
                "select count(*) from PhotoPrimary where modelMag_r between 17 and 18 and objID <= {max}"
            ),
            expected: count(&mut primary.iter().map(|o| (17.0..=18.0).contains(&o.model_mag[R]))),
        },
        Canned {
            sql: format!("select count(*) from PhotoObj where (flags & {saturated}) > 0 and objID <= {max}"),
            expected: count(&mut oracle.photo.iter().map(|o| o.flags & saturated > 0)),
        },
        Canned {
            sql: "select count(*) from SpecObj where z > 0.1".to_string(),
            expected: count(&mut oracle.spec.iter().map(|s| s.z > 0.1)),
        },
        Canned {
            sql: format!("select count(*) from PhotoObj where rowv > 5 and objID <= {max}"),
            expected: count(&mut oracle.photo.iter().map(|o| o.rowv > 5.0)),
        },
        Canned {
            sql: format!(
                "select count(*) from Galaxy where (modelMag_u - modelMag_g) > 1.5 and objID <= {max}"
            ),
            expected: count(&mut galaxies.iter().map(|o| o.model_mag[U] - o.model_mag[G] > 1.5)),
        },
    ]
}

/// The canned searches of `release_churn`: 64 index-range counts, each over
/// 5,000 consecutive survey ids (fewer on a smaller survey), alike in cost
/// (about 5 ms on a miss at Personal scale).  They fit the result cache, and
/// every publish makes each of them miss once, so about 4 % of the reads
/// are misses: the p99 falls among them rather than on the edge of the 1 %
/// of requests that open a new connection.  The ranges end at the survey's
/// last id, so published rows never change the answers.
pub fn churn_canned(oracle: &Oracle) -> Vec<Canned> {
    let min = oracle.photo.iter().map(|o| o.obj_id).min().unwrap_or(0);
    let ids = oracle.max_obj_id() - min + 1;
    let width = ids.min(10_000) / 2;
    let stride = (ids - width) / 63;
    (0..64)
        .map(|k| {
            let (lo, hi) = (min + stride * k, min + stride * k + width - 1);
            Canned {
                sql: format!(
                    "select count(*) from PhotoObj where objID between {lo} and {hi} and modelMag_r < 21"
                ),
                expected: oracle
                    .photo
                    .iter()
                    .filter(|o| (lo..=hi).contains(&o.obj_id) && o.model_mag[R] < 21.0)
                    .count() as i64,
            }
        })
        .collect()
}

fn x_sql(sql: &str) -> String {
    format!("/en/tools/search/x_sql?cmd={}&format=csv", encode(sql))
}

impl Page {
    /// Operation type: the route the page is served by.
    pub fn route(&self) -> &'static str {
        match self {
            Page::Home(_) => "home",
            Page::Help => "help",
            Page::Places => "places",
            Page::Navi { .. } => "navigator",
            Page::Cone { .. } => "api_cone",
            Page::Explore(..) => "explorer",
            Page::ApiObject(_) => "api_object",
            Page::Canned(_) | Page::IdRange(..) | Page::Reversed => "x_sql",
            Page::AsOf => "x_sql_as_of",
        }
    }

    /// The SQL text of a search page.
    pub fn sql(&self, canned: &[Canned]) -> Option<String> {
        match self {
            Page::Canned(k) => Some(canned[*k].sql.clone()),
            Page::IdRange(lo, hi) => Some(format!(
                "select objID, ra, dec from PhotoObj where objID between {lo} and {hi}"
            )),
            Page::Reversed => Some(REVERSED_SQL.to_string()),
            Page::AsOf => Some(AS_OF_SQL.to_string()),
            _ => None,
        }
    }

    /// The request path.
    pub fn path(&self, canned: &[Canned]) -> String {
        match self {
            Page::Home(lang) => format!("/{lang}/"),
            Page::Help => "/en/help/browser".to_string(),
            Page::Places => "/en/tools/places".to_string(),
            Page::Navi { ra, dec, zoom } => format!("/en/tools/navi?ra={ra}&dec={dec}&zoom={zoom}"),
            Page::Cone { ra, dec, radius } => {
                format!("/api/v1/cone?ra={ra}&dec={dec}&radius={radius}")
            }
            Page::Explore(lang, id) => format!("/{lang}/tools/explore?id={id}"),
            Page::ApiObject(id) => format!("/api/v1/objects/{id}"),
            _ => x_sql(&self.sql(canned).expect("search pages carry SQL")),
        }
    }

    /// Whether the route answers from a cache, so an in-process replay
    /// right after the TCP request does different work than the request.
    fn cached(&self) -> bool {
        matches!(
            self,
            Page::Cone { .. } | Page::Canned(_) | Page::IdRange(..) | Page::Reversed | Page::AsOf
        )
    }

    /// Check an answer against the oracle.  `extra` lists objects published
    /// after the survey was loaded (`(objID, ra, dec)`).
    pub fn check(
        &self,
        reply: &Reply,
        oracle: &Oracle,
        canned: &[Canned],
        extra: &[Placed],
    ) -> Outcome {
        if let Page::Reversed = self {
            return match reply.status {
                200 if csv_rows(&reply.body).is_empty() => Outcome::Ok,
                200 => Outcome::Wrong("reversed range returned rows".into()),
                _ => Outcome::Failed,
            };
        }
        if reply.status != 200 {
            return Outcome::Wrong(format!("{}: answered {}", self.path(canned), reply.status));
        }
        match self.verify(&reply.body, oracle, canned, extra) {
            Ok(()) => Outcome::Ok,
            Err(why) => Outcome::Wrong(format!("{}: {why}", self.path(canned))),
        }
    }

    fn verify(
        &self,
        body: &str,
        oracle: &Oracle,
        canned: &[Canned],
        extra: &[Placed],
    ) -> Result<(), String> {
        match self {
            Page::Home(_) => body
                .contains("SkyServer")
                .then_some(())
                .ok_or_else(|| "home page lacks its title".to_string()),
            Page::Help => body
                .contains("PhotoObj")
                .then_some(())
                .ok_or_else(|| "schema browser lacks PhotoObj".to_string()),
            Page::Places => {
                let ids: Vec<i64> = body
                    .split("Galaxy ")
                    .skip(1)
                    .filter_map(|s| s.split_whitespace().next()?.parse().ok())
                    .collect();
                let want = oracle.brightest_galaxies(12);
                (ids == want)
                    .then_some(())
                    .ok_or_else(|| format!("listed {ids:?}, brightest are {want:?}"))
            }
            Page::Navi { ra, dec, zoom } => {
                let json = parse_json(body)?;
                let ids: Vec<i64> = json["objects"]
                    .as_array()
                    .ok_or("no objects array")?
                    .iter()
                    .filter_map(|o| o["objID"].as_i64())
                    .collect();
                oracle
                    .cone(*ra, *dec, 60.0 / f64::from(1u32 << zoom))
                    .check_set(&ids)
            }
            Page::Cone { ra, dec, radius } => {
                let json = parse_json(body)?;
                let ids: Vec<i64> = json["rows"]
                    .as_array()
                    .ok_or("no rows array")?
                    .iter()
                    .filter_map(|r| r[0].as_i64())
                    .collect();
                let total = json["meta"]["total_rows"].as_u64().ok_or("no total_rows")? as usize;
                oracle.cone(*ra, *dec, *radius).check_page(&ids, total)
            }
            Page::Explore(_, id) | Page::ApiObject(id) => {
                let json = parse_json(body)?;
                let (want_ra, want_dec) = match oracle.object(*id) {
                    Some(o) => (o.ra, o.dec),
                    None => extra
                        .iter()
                        .find(|e| e.0 == *id)
                        .map(|e| (e.1, e.2))
                        .ok_or_else(|| format!("object {id} is unknown to the oracle"))?,
                };
                let (got_id, ra, dec) = (
                    json["obj_id"].as_i64(),
                    json["ra"].as_f64(),
                    json["dec"].as_f64(),
                );
                let close = |a: Option<f64>, b: f64| a.is_some_and(|a| (a - b).abs() < 1e-9);
                (got_id == Some(*id) && close(ra, want_ra) && close(dec, want_dec))
                    .then_some(())
                    .ok_or_else(|| {
                        format!("got {got_id:?} at ({ra:?}, {dec:?}), want ({want_ra}, {want_dec})")
                    })
            }
            Page::Canned(k) => {
                let rows = csv_rows(body);
                let got = rows
                    .first()
                    .and_then(|r| r.first())
                    .and_then(|v| v.parse::<f64>().ok());
                (got == Some(canned[*k].expected as f64))
                    .then_some(())
                    .ok_or_else(|| format!("count {got:?}, survey has {}", canned[*k].expected))
            }
            Page::IdRange(lo, hi) => {
                let mut ids: Vec<i64> = csv_rows(body)
                    .iter()
                    .filter_map(|r| r.first()?.parse().ok())
                    .collect();
                ids.sort_unstable();
                let want = oracle.ids_between(*lo, *hi);
                (ids == want)
                    .then_some(())
                    .ok_or_else(|| format!("ids {ids:?}, survey has {want:?}"))
            }
            Page::AsOf => {
                let ids: Vec<i64> = csv_rows(body)
                    .iter()
                    .filter_map(|r| r.first()?.parse().ok())
                    .collect();
                let mut galaxies: Vec<_> = oracle.galaxies().collect();
                galaxies.sort_by(|a, b| a.model_mag[R].total_cmp(&b.model_mag[R]));
                let want: Vec<i64> = galaxies.iter().take(20).map(|o| o.obj_id).collect();
                (ids == want).then_some(()).ok_or_else(|| {
                    format!("dr1 lists {ids:?}, the survey's brightest are {want:?}")
                })
            }
            Page::Reversed => Ok(()),
        }
    }

    /// Replay the request in-process, one span per layer call, and return
    /// the in-process handling time (ms) when the route has no cache (so
    /// the TCP round trip minus it is the transport's share).
    pub fn replay(
        &self,
        tracer: &Tracer,
        op: u64,
        sky: &SkyServer,
        site: &SkyServerSite,
        canned: &[Canned],
        rec: &mut Recorder,
    ) -> Result<Option<f64>, String> {
        let route = self.route();
        let root = tracer.begin("web.replay", None, op);
        let head = crate::client::Client::head(&self.path(canned));
        let request = tracer
            .span("web.parse_request", root, op, || parse_request(&head))
            .ok_or("the request head does not parse")?;
        let started = Instant::now();
        let response = tracer.span(&format!("web.handle.{route}"), root, op, || {
            site.handle(&request)
        });
        let handle_ms = started.elapsed().as_secs_f64() * 1e3;
        if response.status != 200 {
            return Err(format!("in-process {route} answered {}", response.status));
        }
        match self {
            Page::Places => {
                tracer
                    .span("core.places_query", root, op, || sky.query(PLACES_SQL))
                    .map_err(|e| e.to_string())?;
            }
            Page::Navi { ra, dec, .. } | Page::Cone { ra, dec, .. } => {
                let radius = match self {
                    Page::Navi { zoom, .. } => 60.0 / f64::from(1u32 << zoom),
                    Page::Cone { radius, .. } => *radius,
                    _ => unreachable!("matched above"),
                };
                let region = Convex::circle_arcmin(*ra, *dec, radius);
                let covered = tracer.span("htm.cover", root, op, || cover(&region));
                rec.add("htm.covers", 1.0);
                rec.add("htm.ranges", covered.len() as f64);
                rec.add("htm.trixels", covered.total_trixels() as f64);
                tracer
                    .span("core.nearby", root, op, || {
                        sky.nearby_objects(*ra, *dec, radius)
                    })
                    .map_err(|e| e.to_string())?;
            }
            Page::Explore(_, id) | Page::ApiObject(id) => {
                tracer
                    .span("core.explore", root, op, || sky.explore(*id))
                    .map_err(|e| e.to_string())?;
            }
            Page::Canned(_) | Page::IdRange(..) | Page::AsOf => {
                let sql = self.sql(canned).expect("search pages carry SQL");
                let engine = tracer.begin("sql.engine", root, op);
                let outcome = sky.execute_public(&sql);
                tracer.end(engine);
                let outcome = outcome.map_err(|e| e.to_string())?;
                let traced = traced_select(tracer, root, op, sky, &sql, QueryLimits::PUBLIC)?
                    .ok_or("a search page runs one SELECT")?;
                crate::mining::count_scan(rec, &outcome.stats.stats);
                rec.sql_keys.push((op, sql));
                tracer.span("web.render", root, op, || OutputFormat::Csv.render(&traced));
            }
            Page::Home(_) | Page::Help | Page::Reversed => {}
        }
        tracer.end(root);
        Ok((!self.cached()).then_some(handle_ms))
    }
}

fn parse_json(body: &str) -> Result<serde_json::Value, String> {
    serde_json::from_str(body).map_err(|e| format!("bad JSON: {e:?}"))
}

/// Data rows of a CSV body (the header line dropped).
fn csv_rows(body: &str) -> Vec<Vec<&str>> {
    body.lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|l| l.split(',').collect())
        .collect()
}
