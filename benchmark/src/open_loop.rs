//! The open-loop load generator, its fixed schedule, and the capacity rule.
//!
//! Requests are sent on a fixed schedule (request `i` of a phase is due
//! `i / rate` seconds after the phase starts) whether or not earlier ones were
//! answered, as independent users would send them. Each request is timed from
//! its due time, not from when the generator got round to sending it, so a stall
//! also charges the requests queued behind it; how late the generator itself ran
//! is reported separately. A refused (`Saturated`), shed or failed request is
//! a miss: it enters the percentiles as infinitely slow.
//!
//! Capacity is searched over a ladder of fixed absolute rates. A rate meets
//! the workload's latency limit when its p99 latency is at most the limit and
//! the backlog of unanswered requests does not grow over the phase.

use std::time::{Duration, Instant};

use rnknn::graph::generator::SplitMix64;
use rnknn::graph::NodeId;
use rnknn::objects::UpdateEvent;
use rnknn::{Method, QueryOutput};
use rnknn_serve::{
    KnnRequest, KnnResponse, ObjectStore, Receiver, ServeError, ServeFront, SubmitError,
};

use crate::clock::named_thread_cpu;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Lowest rate of the capacity ladder, requests per second.
pub const LADDER_BASE: f64 = 50.0;
/// Ratio between neighbouring ladder rates.
pub const LADDER_STEP: f64 = 1.05;
/// Number of ladder rates (the top one is ~6,300 req/s).
pub const LADDER_LEN: usize = 100;

/// Name of the front's only worker thread.
const WORKER_THREAD: &str = "rnknn-serve-0";

/// How close to a due time the generator stops sleeping and spins.
const SPIN_WINDOW: Duration = Duration::from_micros(300);

/// The methods a served request alternates between.
pub const SERVED: [Method; 2] = [Method::Gtree, Method::IerGtree];

/// Offset of request `i` from the start of a phase sent at `rate` per second.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_nanos((i as f64 * 1e9 / rate).round() as u64)
}

/// Rate of ladder rung `i`, requests per second.
pub fn ladder_rate(i: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(i as i32)
}

/// The highest ladder rung whose rate does not exceed `rate`.
pub fn ladder_index_at_or_below(rate: f64) -> usize {
    (0..LADDER_LEN).take_while(|&i| ladder_rate(i) <= rate * (1.0 + 1e-9)).last().unwrap_or(0)
}

/// Whether the unanswered-request backlog grew: its mean over the second half
/// of a phase's submissions is well above its mean over the first half.
/// Under a steady load the two halves agree; past capacity the backlog rises
/// linearly, so the second half averages about three times the first.
pub fn backlog_grows(samples: &[f64]) -> bool {
    let half = samples.len() / 2;
    if half == 0 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let (first, second) = (mean(&samples[..half]), mean(&samples[half..]));
    second > 1.5 * first + 2.0
}

/// The capacity rule for one phase: p99 within `limit_us` (misses count as
/// infinitely slow) and no growing backlog.
pub fn meets_limit(latency_us: &Samples, backlog: &[f64], limit_us: f64) -> bool {
    latency_us.tail(99.0).is_some_and(|q| q.value <= limit_us) && !backlog_grows(backlog)
}

/// Finds the highest ladder rung that meets the limit. Starting at `start`,
/// it steps up (or down, if `start` fails) by doubling strides until the
/// verdict flips or the ladder ends, then bisects between the highest pass and
/// the lowest failure with at most `max_bisections` more probes. `None` when
/// the bottom rung fails.
pub fn find_capacity(
    start: usize,
    max_bisections: usize,
    mut passes: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let top = LADDER_LEN - 1;
    let (mut pass, mut fail) = (None, None);
    let mut rung = start.min(top);
    let mut stride = 1;
    let mut bisections = 0;
    loop {
        if passes(rung) {
            pass = Some(rung);
        } else {
            fail = Some(rung);
        }
        rung = match (pass, fail) {
            (Some(p), None) if p < top => (p + stride).min(top),
            (None, Some(f)) if f > 0 => f.saturating_sub(stride),
            (Some(p), Some(f)) if f > p + 1 && bisections < max_bisections => {
                bisections += 1;
                (p + f) / 2
            }
            _ => return pass,
        };
        stride *= 2;
    }
}

/// Object-move events streamed into the front at a fixed rate.
pub struct Churn {
    events: Vec<UpdateEvent>,
    sent: usize,
    per_sec: f64,
    origin: Instant,
}

impl Churn {
    /// A stream of `events` sent at `per_sec`, starting now.
    pub fn new(events: Vec<UpdateEvent>, per_sec: f64) -> Churn {
        Churn { events, sent: 0, per_sec, origin: Instant::now() }
    }

    /// Restarts the schedule so the next event is due now (used after untimed
    /// gaps, so they do not turn into a burst).
    pub fn resume(&mut self) {
        self.origin = Instant::now() - due_offset(self.sent, self.per_sec);
    }

    /// When the next event is due, if any remain.
    pub fn next_due(&self) -> Option<Instant> {
        (self.sent < self.events.len()).then(|| self.origin + due_offset(self.sent, self.per_sec))
    }

    /// Submits every event due by `now`.
    pub fn pump(&mut self, front: &ServeFront, now: Instant) -> Result<(), SubmitError> {
        while self.next_due().is_some_and(|due| due <= now) {
            front.submit_update(self.events[self.sent])?;
            self.sent += 1;
        }
        Ok(())
    }

    /// Stages every event due by `now` straight into `store` and publishes
    /// them as one epoch, on the calling thread.
    pub fn apply_due(&mut self, store: &ObjectStore, now: Instant) {
        let first = self.sent;
        while self.next_due().is_some_and(|due| due <= now) {
            store.stage(self.events[self.sent]);
            self.sent += 1;
        }
        if self.sent > first {
            store.publish();
        }
    }
}

/// The live serving stack the generator talks to.
pub struct Live {
    /// The front, one worker.
    pub front: ServeFront,
    /// Its response stream.
    pub responses: Receiver<KnnResponse>,
    /// The update stream, if the workload has churn.
    pub churn: Option<Churn>,
    /// k of every request.
    pub k: usize,
    /// Query vertices of served requests.
    pub vertices: SplitMix64,
    /// Vertices in the network.
    pub n: u64,
    /// Next request id.
    pub next_id: u64,
    /// Requests whose response broke the result contract.
    pub malformed: u64,
}

/// What one open-loop phase measured.
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency from due time to response, µs; misses are infinite.
    pub latency_us: Samples,
    /// Engine time of answered requests (`stats.elapsed_micros`).
    pub service_us: Samples,
    /// Latency minus engine time of answered requests, µs.
    pub queue_wait_us: Samples,
    /// How late the generator sent each request, µs.
    pub lag_us: Samples,
    /// Unanswered requests after each submission.
    pub backlog: Vec<f64>,
    /// Requests sent (including refused ones).
    pub attempted: u64,
    /// Refused at submission (`Saturated`).
    pub refused: u64,
    /// Shed by the front (`ShedExpired`).
    pub shed: u64,
    /// Answered with an error, or with a result that broke the contract.
    pub failed: u64,
}

impl Phase {
    /// Whether this phase meets the capacity rule under `limit_us`.
    pub fn meets_limit(&self, limit_us: f64) -> bool {
        meets_limit(&self.latency_us, &self.backlog, limit_us)
    }

    /// Pools another phase at the same rate into this one.
    pub fn merge(self, other: Phase) -> Phase {
        let mut backlog = self.backlog;
        backlog.extend(other.backlog);
        Phase {
            rate: self.rate,
            latency_us: self.latency_us.merge(other.latency_us),
            service_us: self.service_us.merge(other.service_us),
            queue_wait_us: self.queue_wait_us.merge(other.queue_wait_us),
            lag_us: self.lag_us.merge(other.lag_us),
            backlog,
            attempted: self.attempted + other.attempted,
            refused: self.refused + other.refused,
            shed: self.shed + other.shed,
            failed: self.failed + other.failed,
        }
    }
}

/// Per-request bookkeeping inside a phase.
struct Pending {
    due: Vec<Instant>,
    latency_us: Vec<f64>,
    service_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    answered: u64,
    shed: u64,
    failed: u64,
}

impl Live {
    fn next_vertex(&mut self) -> NodeId {
        self.vertices.next_below(self.n) as NodeId
    }

    /// Whether an answer has `k` results in non-decreasing distance order
    /// (every workload has more than `k` reachable objects).
    fn well_formed(&mut self, out: &QueryOutput) -> bool {
        let ok = out.result.len() == self.k && out.result.windows(2).all(|w| w[0].1 <= w[1].1);
        if !ok {
            self.malformed += 1;
        }
        ok
    }

    /// Checks one response's structure and files its timings under `base`.
    fn absorb(&mut self, r: KnnResponse, base: u64, p: &mut Pending, tracer: &mut Tracer) {
        let now = Instant::now();
        let Some(i) = r.id.checked_sub(base).map(|i| i as usize).filter(|&i| i < p.due.len())
        else {
            // A response from another phase cannot arrive: each phase drains.
            p.failed += 1;
            return;
        };
        p.answered += 1;
        let latency_us = now.saturating_duration_since(p.due[i]).as_nanos() as f64 / 1e3;
        match r.output {
            Ok(out) => {
                if !self.well_formed(&out) {
                    p.failed += 1;
                    return;
                }
                let service = out.stats.elapsed_micros as f64;
                p.latency_us[i] = latency_us;
                p.service_us.push(service);
                p.queue_wait_us.push((latency_us - service).max(0.0));
                tracer.record("serve.request", r.id, None, p.due[i], now, out.stats.elapsed_micros);
            }
            Err(ServeError::ShedExpired) => p.shed += 1,
            Err(_) => p.failed += 1,
        }
    }

    /// Waits until `until`, collecting responses and pumping churn meanwhile.
    fn wait_until(&mut self, until: Instant, base: u64, p: &mut Pending, tracer: &mut Tracer) {
        loop {
            let now = Instant::now();
            if let Some(churn) = self.churn.as_mut() {
                if churn.pump(&self.front, now).is_err() {
                    p.failed += 1;
                }
            }
            if now >= until {
                return;
            }
            // Sleep while the next due time is far, spin through the last
            // stretch: waking from a sleep can overshoot by ~0.1-0.2 ms.
            let wake =
                self.churn.as_ref().and_then(Churn::next_due).map_or(until, |d| d.min(until));
            let slack = wake.saturating_duration_since(now);
            let next = if slack > SPIN_WINDOW {
                self.responses.recv_timeout(slack - SPIN_WINDOW).ok()
            } else {
                self.responses.try_recv().ok()
            };
            match next {
                Some(r) => self.absorb(r, base, p, tracer),
                None => std::hint::spin_loop(),
            }
        }
    }

    /// Sends `count` requests at `rate` per second, waits for every answer, and
    /// returns the phase's measurements.
    pub fn run_phase(&mut self, rate: f64, count: usize, tracer: &mut Tracer) -> Phase {
        let base = self.next_id;
        self.next_id += count as u64;
        let mut p = Pending {
            due: Vec::with_capacity(count),
            latency_us: vec![f64::INFINITY; count],
            service_us: Vec::with_capacity(count),
            queue_wait_us: Vec::with_capacity(count),
            answered: 0,
            shed: 0,
            failed: 0,
        };
        let mut lag_us = Vec::with_capacity(count);
        let mut backlog = Vec::with_capacity(count);
        let (mut submitted, mut refused) = (0u64, 0u64);
        if let Some(churn) = self.churn.as_mut() {
            churn.resume();
        }
        let start = Instant::now() + Duration::from_millis(1);
        for i in 0..count {
            let due = start + due_offset(i, rate);
            self.wait_until(due, base, &mut p, tracer);
            let id = base + i as u64;
            let request = KnnRequest {
                id,
                method: SERVED[i % SERVED.len()],
                query: self.next_vertex(),
                k: self.k,
                deadline: None,
            };
            let sent_at = Instant::now();
            p.due.push(due);
            lag_us.push(sent_at.saturating_duration_since(due).as_nanos() as f64 / 1e3);
            match self.front.try_submit(request) {
                Ok(()) => submitted += 1,
                Err(SubmitError::Saturated(_)) => refused += 1,
                Err(SubmitError::ShuttingDown) => p.failed += 1,
            }
            tracer.record("serve.submit", id, None, sent_at, Instant::now(), 0);
            if tracer.enabled() {
                let pin = Instant::now();
                let snapshot = self.front.store().snapshot();
                tracer.record("serve.store.pin", id, None, pin, Instant::now(), snapshot.epoch());
            }
            backlog.push(submitted.saturating_sub(p.answered) as f64);
            while let Ok(r) = self.responses.try_recv() {
                self.absorb(r, base, &mut p, tracer);
            }
        }
        // Drain: every accepted request is answered exactly once.
        let give_up = Instant::now() + Duration::from_secs(60);
        while p.answered < submitted && Instant::now() < give_up {
            let until = Instant::now() + Duration::from_millis(5);
            self.wait_until(until, base, &mut p, tracer);
        }
        let lost = submitted - p.answered.min(submitted);
        Phase {
            rate,
            latency_us: Samples::new(p.latency_us),
            service_us: Samples::new(p.service_us),
            queue_wait_us: Samples::new(p.queue_wait_us),
            lag_us: Samples::new(lag_us),
            backlog,
            attempted: count as u64,
            refused,
            shed: p.shed,
            failed: p.failed + lost,
        }
    }

    /// Keeps `window` requests outstanding for `blocks` consecutive blocks of
    /// `block` each and returns the median per-block completion rate with
    /// (attempted, failed): the throughput past which an open-loop backlog
    /// can only grow. A block's rate is its completions per second of CPU
    /// time of the front's worker thread (see [`crate::clock`]), so time the
    /// worker waited for a CPU does not count; the median keeps one slow
    /// spell of the host from setting the figure.
    pub fn saturate(
        &mut self,
        window: usize,
        blocks: u32,
        block: Duration,
    ) -> Result<(f64, u64, u64), String> {
        let (mut outstanding, mut attempted, mut failed) = (0u64, 0u64, 0u64);
        let mut completed = vec![0u64; blocks as usize];
        // The worker's CPU clock, read as each block boundary passes.
        let mut worker_cpu = vec![None; blocks as usize + 1];
        if let Some(churn) = self.churn.as_mut() {
            churn.resume();
        }
        let start = Instant::now();
        worker_cpu[0] = named_thread_cpu(WORKER_THREAD);
        let end = start + block * blocks;
        let give_up = end + Duration::from_secs(60);
        while outstanding > 0 || Instant::now() < end {
            let now = Instant::now();
            let boundary = (now.duration_since(start).as_nanos() / block.as_nanos()) as usize;
            if let Some(mark @ None) = worker_cpu.get_mut(boundary) {
                *mark = named_thread_cpu(WORKER_THREAD);
            }
            if now > give_up {
                failed += outstanding;
                break;
            }
            if let Some(churn) = self.churn.as_mut() {
                if churn.pump(&self.front, now).is_err() {
                    failed += 1;
                }
            }
            while now < end && outstanding < window as u64 {
                let request = KnnRequest {
                    id: self.next_id,
                    method: SERVED[(self.next_id % 2) as usize],
                    query: self.next_vertex(),
                    k: self.k,
                    deadline: None,
                };
                self.next_id += 1;
                attempted += 1;
                if self.front.try_submit(request).is_err() {
                    failed += 1;
                    break;
                }
                outstanding += 1;
            }
            if let Ok(r) = self.responses.recv_timeout(Duration::from_millis(1)) {
                outstanding -= 1;
                match r.output {
                    Ok(out) if self.well_formed(&out) => {
                        let at = start.elapsed().as_nanos() / block.as_nanos();
                        if let Some(count) = completed.get_mut(at as usize) {
                            *count += 1;
                        }
                    }
                    _ => failed += 1,
                }
            }
        }
        let rates: Vec<f64> = (0..blocks as usize)
            .filter_map(|b| {
                let busy = worker_cpu[b + 1]?.checked_sub(worker_cpu[b]?)?;
                (!busy.is_zero()).then(|| completed[b] as f64 / busy.as_secs_f64())
            })
            .collect();
        match Samples::new(rates).p50() {
            Some(q) => Ok((q.value, attempted, failed)),
            None => Err(format!("no CPU time read for worker thread {WORKER_THREAD}")),
        }
    }

    /// Closed-loop warm-up through the front: each request waits for its
    /// answer. Returns (attempted, failed).
    pub fn warm_up(&mut self, requests: usize, tracer: &mut Tracer) -> (u64, u64) {
        let mut failed = 0;
        for _ in 0..requests {
            let phase = self.run_phase(1e6, 1, tracer);
            failed += phase.failed + phase.refused + phase.shed;
        }
        (requests as u64, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT_US: f64 = 10_000.0;

    /// A single FIFO server with a fixed service time, fed the open-loop
    /// schedule in virtual time. Returns latencies from due time (µs) and the
    /// backlog after each submission, as the live generator records them.
    fn synthetic(rate: f64, count: usize, service: Duration) -> (Samples, Vec<f64>) {
        let mut free_at = Duration::ZERO;
        let mut finishes: Vec<Duration> = Vec::with_capacity(count);
        let mut latencies = Vec::with_capacity(count);
        let mut backlog = Vec::with_capacity(count);
        for i in 0..count {
            let due = due_offset(i, rate);
            let finish = free_at.max(due) + service;
            free_at = finish;
            finishes.push(finish);
            latencies.push((finish - due).as_nanos() as f64 / 1e3);
            backlog.push(finishes.iter().filter(|&&f| f > due).count() as f64);
        }
        (Samples::new(latencies), backlog)
    }

    #[test]
    fn schedule_is_fixed_by_rate_alone() {
        assert_eq!(due_offset(0, 500.0), Duration::ZERO);
        assert_eq!(due_offset(3, 500.0), Duration::from_millis(6));
        assert_eq!(due_offset(1000, 1000.0), Duration::from_secs(1));
        assert_eq!(due_offset(1, 3.0), Duration::from_nanos(333_333_333));
    }

    #[test]
    fn ladder_is_geometric_and_indexable() {
        assert_eq!(ladder_rate(0), LADDER_BASE);
        assert!((ladder_rate(10) / ladder_rate(9) - LADDER_STEP).abs() < 1e-12);
        let i = ladder_index_at_or_below(1000.0);
        assert!(ladder_rate(i) <= 1000.0 && ladder_rate(i + 1) > 1000.0);
        assert_eq!(ladder_index_at_or_below(ladder_rate(17)), 17);
    }

    #[test]
    fn synthetic_server_below_capacity_meets_the_limit() {
        // 1 ms service: capacity is 1000 req/s. At 900 req/s nothing queues.
        let (lat, backlog) = synthetic(900.0, 1000, Duration::from_millis(1));
        assert_eq!(lat.tail(99.0).unwrap().value, 1000.0);
        assert!(!backlog_grows(&backlog));
        assert!(meets_limit(&lat, &backlog, LIMIT_US));
    }

    #[test]
    fn synthetic_server_past_capacity_fails_on_a_growing_backlog() {
        // At 1100 req/s the queue grows by ~91 requests per 1000 sent.
        let (lat, backlog) = synthetic(1100.0, 1000, Duration::from_millis(1));
        assert!(backlog_grows(&backlog));
        assert!(!meets_limit(&lat, &backlog, LIMIT_US));
        // A slow server that never queues fails on latency alone.
        let (lat, backlog) = synthetic(50.0, 1000, Duration::from_millis(12));
        assert!(!backlog_grows(&backlog));
        assert!(!meets_limit(&lat, &backlog, LIMIT_US));
    }

    #[test]
    fn refusals_are_misses() {
        // 11 misses among 1000 otherwise fast requests put p99 on a miss.
        let mut latencies = vec![1000.0; 989];
        latencies.extend([f64::INFINITY; 11]);
        assert!(!meets_limit(&Samples::new(latencies), &[1.0; 1000], LIMIT_US));
    }

    #[test]
    fn capacity_search_finds_the_synthetic_servers_capacity() {
        let service = Duration::from_micros(800); // capacity 1250 req/s
        let mut probes = 0;
        let rung = find_capacity(ladder_index_at_or_below(700.0), 3, |i| {
            probes += 1;
            let (lat, backlog) = synthetic(ladder_rate(i), 1000, service);
            meets_limit(&lat, &backlog, LIMIT_US)
        })
        .unwrap();
        assert!(probes <= 8, "{probes} probes");
        let (found, next) = (ladder_rate(rung), ladder_rate(rung + 1));
        // The highest passing rung is within one ladder step of the bound.
        assert!(found <= 1250.0 * LADDER_STEP && next > 1250.0, "found {found}, next {next}");
    }

    #[test]
    fn capacity_search_steps_down_when_the_start_fails() {
        let limit = ladder_rate(20);
        let rung = find_capacity(40, 10, |i| ladder_rate(i) <= limit).unwrap();
        assert_eq!(rung, 20);
        // Far below the start, stepping continues until a rung passes.
        assert_eq!(find_capacity(90, 10, |i| i <= 3).unwrap(), 3);
        assert_eq!(find_capacity(40, 10, |_| false), None);
        assert_eq!(find_capacity(LADDER_LEN - 2, 10, |_| true), Some(LADDER_LEN - 1));
        // With no bisections left the answer is the highest rung that passed.
        assert_eq!(find_capacity(0, 0, |i| i <= 5), Some(3));
    }
}
