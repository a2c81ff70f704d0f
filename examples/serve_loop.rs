//! Embedding the serving daemon: two scenarios, warm caches, graceful drain.
//!
//! This is the code listing referenced from `SERVING.md` — the minimal
//! shape of a host program that keeps a [`Daemon`] resident and feeds it
//! requests as they arrive, instead of paying the artifact build
//! (ELF image, memory map, reference vectors) on every run.
//!
//! The flow is the whole serving contract in miniature:
//!
//! 1. `Daemon::start` brings up worker threads, an empty artifact cache
//!    and an empty arena bank — nothing is built or mapped until the
//!    first request.
//! 2. The first request for each scenario is a cache **miss**: the
//!    worker builds the immutable artifacts once, with a
//!    [`MemPool`](terasim_terapool::MemPool) over them that draws
//!    cluster arenas from the cache's bank.
//! 3. Every later request for the same scenario (any seed — seeds are
//!    excluded from the cache key) is a **hit**: it reuses the artifacts
//!    and recycles an arena of its geometry from the bank.
//! 4. `begin_drain` stops intake (`Rejected::ShuttingDown`) while queued
//!    work finishes; `shutdown` joins the workers and returns the final
//!    counters.
//!
//! Run with: `cargo run --release --example serve_loop`

use terasim::daemon::{Daemon, DaemonConfig, ServeRequest};
use terasim::experiments::{BatchConfig, ParallelConfig};
use terasim_kernels::Precision;

fn main() {
    // A small daemon: two workers, a four-deep admission queue, room for
    // both scenarios in the cache.
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        queue_depth: 4,
        cache_capacity: 2,
        ..DaemonConfig::default()
    });

    // Scenario A: fast-mode Monte-Carlo symbol batches (4x4 MIMO,
    // complex-dot-product fp16 kernels). Scenario B: a 16-core parallel
    // cluster run of the same decode. Different keys, separate builds.
    let symbol = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 0, unroll: 2 };
    let cluster = ParallelConfig { cores: 16, n: 4, precision: Precision::CDotp16, seed: 0, unroll: 2 };

    // Interleave requests for both scenarios. Tickets resolve out of
    // band; a real host would hold them wherever the work originated.
    let mut tickets = Vec::new();
    for round in 0..4u64 {
        let mut sym = ServeRequest::Symbol { config: symbol };
        let mut par = ServeRequest::Fast { config: cluster };
        sym.reseed(round);
        par.reseed(round.wrapping_mul(31));
        for req in [sym, par] {
            match daemon.submit(req) {
                Ok(ticket) => tickets.push(ticket),
                // Backpressure: a saturated queue sheds load instead of
                // buffering unboundedly. A real host retries or reroutes;
                // this example just waits for the oldest ticket.
                Err(rejected) => {
                    println!("shed one request: {rejected}");
                    if let Some(t) = tickets.pop() {
                        t.wait();
                    }
                }
            }
        }
    }

    // Graceful drain: everything admitted above still completes.
    daemon.begin_drain();
    for ticket in tickets {
        let done = ticket.wait();
        let outcome = match done.response {
            Ok(resp) => format!("{} (verified: {})", done.cache_hit, resp.verified()),
            Err(e) => format!("failed: {e}"),
        };
        println!("latency {:>8.3} ms  cache-hit {}", done.latency.as_secs_f64() * 1e3, outcome);
    }

    let stats = daemon.shutdown();
    println!(
        "\ncompleted {} / failed {}  cache hits {} misses {} evictions {}",
        stats.completed, stats.failed, stats.cache.hits, stats.cache.misses, stats.cache.evictions
    );
    println!(
        "arenas: fresh {} recycled {} quarantined {}",
        stats.pools.fresh, stats.pools.recycled, stats.pools.quarantined
    );
    assert_eq!(stats.failed, 0);
    assert!(stats.cache.hits > 0, "repeat scenarios must ride the warm cache");
}
