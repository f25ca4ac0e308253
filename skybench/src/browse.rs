//! `web_browse`: two keep-alive TCP clients replay the §7 public page mix.
//!
//! Section shares follow `pick_section` in `crates/web/src/traffic.rs`
//! (human visitors): education 11 % (served by the home page, which links
//! the projects), Japanese 5.5 %, German 4.2 %, famous places 25 %,
//! navigator 20 %, explorer 15 %, SQL search 12 %, help 7.3 %.  One round
//! is 200 requests in those shares, shuffled per round.

use crate::client::Client;
use crate::harness::{Gate, Outcome, Phase, PhaseClock, Recorder};
use crate::oracle::Oracle;
use crate::pages::{Canned, Page, Placed};
use crate::stats::{Rng, Zipf};
use crate::trace::Tracer;
use skyserver::SkyServer;
use skyserver_web::SkyServerSite;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Page slots of one round, before their parameters are drawn.
#[derive(Clone, Copy)]
enum Slot {
    Home(&'static str),
    Help,
    Places,
    Navi(u32),
    Cone(u32),
    Explore(&'static str),
    ApiObject,
    Canned,
    IdRange,
    Reversed,
}

/// `(slot, requests per round)`: 200 requests.
const ROUND: &[(Slot, usize)] = &[
    (Slot::Home("en"), 22),
    (Slot::Home("jp"), 6),
    (Slot::Home("de"), 4),
    (Slot::Help, 15),
    (Slot::Places, 50),
    (Slot::Navi(0), 5),
    (Slot::Navi(1), 5),
    (Slot::Navi(2), 5),
    (Slot::Navi(3), 5),
    (Slot::Cone(0), 5),
    (Slot::Cone(1), 5),
    (Slot::Cone(2), 5),
    (Slot::Cone(3), 5),
    (Slot::Explore("en"), 15),
    (Slot::Explore("jp"), 5),
    (Slot::Explore("de"), 4),
    (Slot::ApiObject, 15),
    (Slot::Canned, 12),
    (Slot::IdRange, 10),
    (Slot::Reversed, 2),
];

/// Operation types of the web workloads (the routes).
pub const ROUTES: [&str; 10] = [
    "home",
    "help",
    "places",
    "navigator",
    "api_cone",
    "explorer",
    "api_object",
    "x_sql",
    "x_sql_as_of",
    "admin_publish",
];

/// The index of `route` in [`ROUTES`].
pub fn route_index(route: &str) -> usize {
    ROUTES
        .iter()
        .position(|r| *r == route)
        .expect("every page has a listed route")
}

/// What a web client needs besides its connection.
pub struct WebCtx<'a> {
    /// The site, for in-process replays.
    pub site: &'a SkyServerSite,
    /// A fork of the served catalog, for in-process layer calls.
    pub mirror: &'a RwLock<Arc<SkyServer>>,
    /// Answers computed from the survey.
    pub oracle: &'a Oracle,
    /// The canned searches.
    pub canned: &'a [Canned],
    /// Objects published after the load: `(objID, ra, dec)`.
    pub extra: &'a RwLock<Vec<Placed>>,
    /// The span recorder.
    pub tracer: &'a Tracer,
}

impl WebCtx<'_> {
    /// Request `page` over `client`, check the answer and record it; when
    /// tracing, replay it in-process layer by layer.  Returns the body of
    /// a correct answer.
    pub fn visit(
        &self,
        client: &mut Client,
        page: &Page,
        rec: &mut Recorder,
        gate: Option<&Gate>,
    ) -> Option<String> {
        let ty = route_index(page.route());
        let path = page.path(self.canned);
        let op = self.tracer.next_op();
        let span = self.tracer.begin("web.tcp_request", None, op);
        let started = Instant::now();
        let reply = client.get(&path);
        let latency = started.elapsed();
        self.tracer.end(span);
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                let outcome = match page {
                    Page::Reversed => Outcome::Failed,
                    _ => Outcome::Wrong(format!("{path}: {e}")),
                };
                rec.record(ty, latency, outcome, gate);
                return None;
            }
        };
        if reply.fresh_connection {
            rec.sample("web.first_request_ms", latency.as_secs_f64() * 1e3);
        }
        let extra = self
            .extra
            .read()
            .expect("the admin thread does not panic holding the list");
        let outcome = page.check(&reply, self.oracle, self.canned, &extra);
        drop(extra);
        let ok = matches!(outcome, Outcome::Ok);
        rec.record(ty, latency, outcome, gate);
        if ok && self.tracer.armed() {
            let sky = self
                .mirror
                .read()
                .expect("the admin thread does not panic holding the mirror")
                .clone();
            match page.replay(self.tracer, op, &sky, self.site, self.canned, rec) {
                Ok(Some(handle_ms)) => {
                    rec.sample("web.transport_ms", latency.as_secs_f64() * 1e3 - handle_ms)
                }
                Ok(None) => {}
                Err(e) => rec.note_wrong(format!("{path}: replay: {e}")),
            }
        }
        ok.then_some(reply.body)
    }
}

/// One client's draws: its generator and its count of id-range searches.
struct Draw {
    rng: Rng,
    ranges: i64,
    client: i64,
    clients: i64,
    offset: i64,
}

/// The workload's seeded inputs.
pub struct Browse {
    ids_by_popularity: Vec<i64>,
    zipf: Zipf,
    min_id: i64,
    id_span: i64,
}

impl Browse {
    /// Draw the explorer's popularity order from `seed`.
    pub fn new(oracle: &Oracle, seed: u64) -> Browse {
        let mut ids: Vec<i64> = oracle.photo.iter().map(|o| o.obj_id).collect();
        ids.sort_unstable();
        let min_id = ids[0];
        let id_span = ids[ids.len() - 1] - min_id - 4;
        Rng::new(seed, 2).shuffle(&mut ids);
        Browse {
            zipf: Zipf::new(ids.len(), 1.0),
            ids_by_popularity: ids,
            min_id,
            id_span,
        }
    }

    /// A Zipf-skewed explorer id.
    pub fn explorer_id(&self, rng: &mut Rng) -> i64 {
        self.ids_by_popularity[self.zipf.sample(rng)]
    }

    /// The position of a uniformly drawn object.
    pub fn position(oracle: &Oracle, rng: &mut Rng) -> (f64, f64) {
        let o = &oracle.photo[rng.below(oracle.photo.len())];
        (o.ra, o.dec)
    }

    fn page(&self, slot: Slot, draw: &mut Draw, ctx: &WebCtx<'_>) -> Page {
        let rng = &mut draw.rng;
        match slot {
            Slot::Home(lang) => Page::Home(lang),
            Slot::Help => Page::Help,
            Slot::Places => Page::Places,
            Slot::Navi(zoom) => {
                let (ra, dec) = Browse::position(ctx.oracle, rng);
                Page::Navi { ra, dec, zoom }
            }
            Slot::Cone(zoom) => {
                let (ra, dec) = Browse::position(ctx.oracle, rng);
                Page::Cone {
                    ra,
                    dec,
                    radius: 60.0 / f64::from(1u32 << zoom),
                }
            }
            Slot::Explore(lang) => Page::Explore(lang, self.explorer_id(rng)),
            Slot::ApiObject => Page::ApiObject(self.explorer_id(rng)),
            Slot::Canned => Page::Canned(rng.below(ctx.canned.len())),
            Slot::IdRange => {
                // Distinct per (client, sequence number): never repeats.
                let k = draw.ranges * draw.clients + draw.client;
                draw.ranges += 1;
                let lo = self.min_id + (draw.offset + k * 7919).rem_euclid(self.id_span);
                Page::IdRange(lo, lo + 4)
            }
            Slot::Reversed => Page::Reversed,
        }
    }

    /// Run `clients` closed-loop clients for whole rounds until the gate
    /// closes (a short pass over every page kind without a gate, as the
    /// warm-up).
    pub fn run(
        &self,
        addr: SocketAddr,
        ctx: &WebCtx<'_>,
        seed: u64,
        gate: Option<&Gate>,
        clients: usize,
    ) -> Phase {
        let clock = PhaseClock::start(gate);
        let recs: Vec<Recorder> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut rng = Rng::new(seed, 100 + c as u64);
                        let offset = (rng.next_u64() % 1_000_000) as i64;
                        let mut draw = Draw {
                            rng,
                            ranges: 0,
                            client: c as i64,
                            clients: clients as i64,
                            offset,
                        };
                        let mut client = Client::new(addr);
                        let mut rec = Recorder::default();
                        let Some(gate) = gate else {
                            // Warm-up: every kind of page once and every
                            // canned search into the result cache.
                            for &(slot, _) in ROUND {
                                let page = self.page(slot, &mut draw, ctx);
                                ctx.visit(&mut client, &page, &mut rec, None);
                            }
                            for k in 0..ctx.canned.len() {
                                ctx.visit(&mut client, &Page::Canned(k), &mut rec, None);
                            }
                            return rec;
                        };
                        loop {
                            let mut slots: Vec<Slot> = ROUND
                                .iter()
                                .flat_map(|&(s, n)| std::iter::repeat_n(s, n))
                                .collect();
                            draw.rng.shuffle(&mut slots);
                            for slot in slots {
                                let page = self.page(slot, &mut draw, ctx);
                                ctx.visit(&mut client, &page, &mut rec, Some(gate));
                            }
                            if gate.done() {
                                break;
                            }
                        }
                        rec.add("web.reconnects", client.reconnects as f64);
                        rec
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a browsing client panicked"))
                .collect()
        });
        let mut rec = Recorder::default();
        for r in recs {
            rec.merge(r);
        }
        clock.stop(ROUTES.iter().map(|r| r.to_string()).collect(), rec)
    }
}
