//! Deterministic closed-loop load simulator.
//!
//! A closed loop has a fixed number of concurrent clients, each
//! submitting its next request the moment the previous one resolves —
//! the standard model for steady-state latency/throughput curves
//! (open-loop arrival processes need a random arrival clock, which
//! would break byte-stable artifacts).
//!
//! The simulator is a discrete-event loop over **integer simulated
//! microseconds**. Per-request service times come from the sequential
//! oracle ([`crate::engine::serve_sequential`]), so the sim models
//! *queueing and shedding only* — who waits, who sheds, when — on top
//! of service times that are already deterministic. No wall clock, no
//! OS scheduler: the same inputs produce the same [`LoadPoint`] bytes
//! on every machine.
//!
//! Event ordering is total: by time, then completions before
//! submissions (a worker freed at `t` can pick up a request submitted
//! at `t`), then by a monotonic tiebreaker sequence.
//!
//! Percentiles are pure integer nearest-rank over the µs latencies
//! (`⌈n·p/100⌉`, no float rank arithmetic), exported both as integer
//! µs ([`LoadPoint::p99_us`]) and as derived ms floats; the µs fields
//! are the source of truth. [`closed_loop_timeline`] additionally
//! returns one [`RequestTiming`] per request — the raw
//! submitted/started/completed stamps the SLO layer's windowing and
//! tail attribution consume.

use multirag_obs::nearest_rank;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated pause before a client whose request was shed moves on to
/// its next request.
pub const SHED_BACKOFF_US: u64 = 200;

/// One measured operating point of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Number of closed-loop clients.
    pub concurrency: usize,
    /// Requests the clients attempted to submit.
    pub offered: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed at admission (queue full).
    pub shed: usize,
    /// Completed requests per simulated second.
    pub throughput_qps: f64,
    /// Median end-to-end latency (queue wait + service), integer µs.
    pub p50_us: u64,
    /// 95th-percentile latency, integer µs.
    pub p95_us: u64,
    /// 99th-percentile latency, integer µs.
    pub p99_us: u64,
    /// Median latency in simulated ms (derived: `p50_us / 1000`).
    pub p50_ms: f64,
    /// 95th-percentile latency in simulated ms (derived).
    pub p95_ms: f64,
    /// 99th-percentile latency in simulated ms (derived).
    pub p99_ms: f64,
    /// Total simulated time until the last client finished, ms.
    pub sim_total_ms: f64,
}

/// Per-request lifecycle stamps on the simulator clock. For a shed
/// request all three stamps equal the shed instant; for a served one
/// `completed_us - submitted_us` is the end-to-end latency and
/// `started_us - submitted_us` the queue wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestTiming {
    /// Whether the request was served (vs shed at admission).
    pub served: bool,
    /// When the client submitted the request (µs).
    pub submitted_us: u64,
    /// When a worker began service (µs).
    pub started_us: u64,
    /// When service finished — or the shed instant (µs).
    pub completed_us: u64,
}

impl RequestTiming {
    /// End-to-end latency: queue wait + service (0 for shed requests).
    pub fn latency_us(&self) -> u64 {
        self.completed_us - self.submitted_us
    }

    /// Time spent waiting in the admission queue (0 for shed requests).
    pub fn queue_wait_us(&self) -> u64 {
        self.started_us - self.submitted_us
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A worker finishes request `request` that `client` submitted at
    /// `submitted` and a worker picked up at `started`.
    Complete {
        client: usize,
        request: usize,
        submitted: u64,
        started: u64,
    },
    /// A client submits its next request (or retires if none remain).
    Arrive { client: usize },
}

/// Runs the closed loop: `concurrency` clients replay `service_us`
/// (request `i` goes to client `i % concurrency`, preserving each
/// client's stream order) against `workers` servers fronted by a
/// bounded queue of `queue_depth`. A submission finding all workers
/// busy and the queue full is shed; the client backs off
/// [`SHED_BACKOFF_US`] and moves on to its next request.
pub fn closed_loop(
    service_us: &[u64],
    concurrency: usize,
    workers: usize,
    queue_depth: usize,
) -> LoadPoint {
    closed_loop_timeline(service_us, concurrency, workers, queue_depth).0
}

/// [`closed_loop`] plus a per-request completion mask: `mask[i]` is
/// `true` iff request `i` was served (not shed). The harness uses the
/// mask to tally answer quality over exactly the requests that made it
/// through admission at this operating point.
pub fn closed_loop_detail(
    service_us: &[u64],
    concurrency: usize,
    workers: usize,
    queue_depth: usize,
) -> (LoadPoint, Vec<bool>) {
    let (point, timings) = closed_loop_timeline(service_us, concurrency, workers, queue_depth);
    let mask = timings.iter().map(|t| t.served).collect();
    (point, mask)
}

/// [`closed_loop`] plus the full per-request [`RequestTiming`]
/// timeline, indexed by request. This is the SLO layer's feed: each
/// timing carries the simulator-clock stamps that windowed aggregation
/// buckets by and that tail attribution splits into queue wait vs
/// service.
pub fn closed_loop_timeline(
    service_us: &[u64],
    concurrency: usize,
    workers: usize,
    queue_depth: usize,
) -> (LoadPoint, Vec<RequestTiming>) {
    let concurrency = concurrency.max(1);
    let workers = workers.max(1);
    // Round-robin partition of the request stream across clients.
    let mut client_requests: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); concurrency];
    for (i, &s) in service_us.iter().enumerate() {
        if let Some(stream) = client_requests.get_mut(i % concurrency) {
            stream.push_back((i, s));
        }
    }

    let mut heap: BinaryHeap<Reverse<(u64, u8, u64, Event)>> = BinaryHeap::new();
    let mut tiebreak: u64 = 0;
    let mut push =
        |heap: &mut BinaryHeap<Reverse<(u64, u8, u64, Event)>>, time: u64, event: Event| {
            // Completions sort before arrivals at the same instant so a
            // freed worker can take a same-instant submission.
            let kind = match event {
                Event::Complete { .. } => 0u8,
                Event::Arrive { .. } => 1u8,
            };
            tiebreak += 1;
            heap.push(Reverse((time, kind, tiebreak, event)));
        };
    for client in 0..concurrency {
        push(&mut heap, 0, Event::Arrive { client });
    }

    let mut busy: usize = 0;
    // Waiting requests: (client, request, submitted, service).
    let mut queue: VecDeque<(usize, usize, u64, u64)> = VecDeque::new();
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut timings = vec![RequestTiming::default(); service_us.len()];
    let mut shed: usize = 0;
    let mut end_time: u64 = 0;

    while let Some(Reverse((now, _, _, event))) = heap.pop() {
        end_time = end_time.max(now);
        match event {
            Event::Complete {
                client,
                request,
                submitted,
                started,
            } => {
                latencies_us.push(now - submitted);
                if let Some(t) = timings.get_mut(request) {
                    *t = RequestTiming {
                        served: true,
                        submitted_us: submitted,
                        started_us: started,
                        completed_us: now,
                    };
                }
                if let Some((qclient, qrequest, qsubmitted, qservice)) = queue.pop_front() {
                    // The freed worker immediately takes the oldest
                    // queued request; `busy` is unchanged.
                    push(
                        &mut heap,
                        now + qservice,
                        Event::Complete {
                            client: qclient,
                            request: qrequest,
                            submitted: qsubmitted,
                            started: now,
                        },
                    );
                } else {
                    busy -= 1;
                }
                push(&mut heap, now, Event::Arrive { client });
            }
            Event::Arrive { client } => {
                let Some((request, service)) = client_requests
                    .get_mut(client)
                    .and_then(VecDeque::pop_front)
                else {
                    continue; // client retired
                };
                if busy < workers {
                    busy += 1;
                    push(
                        &mut heap,
                        now + service,
                        Event::Complete {
                            client,
                            request,
                            submitted: now,
                            started: now,
                        },
                    );
                } else if queue.len() < queue_depth {
                    queue.push_back((client, request, now, service));
                } else {
                    shed += 1;
                    if let Some(t) = timings.get_mut(request) {
                        *t = RequestTiming {
                            served: false,
                            submitted_us: now,
                            started_us: now,
                            completed_us: now,
                        };
                    }
                    push(&mut heap, now + SHED_BACKOFF_US, Event::Arrive { client });
                }
            }
        }
    }

    latencies_us.sort_unstable();
    let completed = latencies_us.len();
    let throughput_qps = if end_time > 0 {
        completed as f64 / (end_time as f64 / 1_000_000.0)
    } else {
        0.0
    };
    let p50_us = nearest_rank(&latencies_us, 50);
    let p95_us = nearest_rank(&latencies_us, 95);
    let p99_us = nearest_rank(&latencies_us, 99);
    let point = LoadPoint {
        concurrency,
        offered: service_us.len(),
        completed,
        shed,
        throughput_qps,
        p50_us,
        p95_us,
        p99_us,
        p50_ms: p50_us as f64 / 1000.0,
        p95_ms: p95_us as f64 / 1000.0,
        p99_ms: p99_us as f64 / 1000.0,
        sim_total_ms: end_time as f64 / 1000.0,
    };
    (point, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_sees_pure_service_time() {
        let service = vec![1_000u64; 10]; // 1ms each
        let point = closed_loop(&service, 1, 4, 8);
        assert_eq!(point.completed, 10);
        assert_eq!(point.shed, 0);
        assert_eq!(point.p50_ms, 1.0);
        assert_eq!(point.p99_ms, 1.0);
        assert_eq!(point.p50_us, 1_000);
        assert_eq!(point.p99_us, 1_000);
        assert_eq!(point.sim_total_ms, 10.0);
        assert!((point.throughput_qps - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn queueing_inflates_latency_when_workers_are_scarce() {
        let service = vec![1_000u64; 8];
        let alone = closed_loop(&service, 1, 1, 8);
        let contended = closed_loop(&service, 4, 1, 8);
        assert_eq!(contended.completed, 8);
        assert!(
            contended.p95_ms > alone.p95_ms,
            "4 clients on 1 worker must queue: {} vs {}",
            contended.p95_ms,
            alone.p95_ms
        );
    }

    #[test]
    fn more_workers_raise_throughput() {
        let service = vec![2_000u64; 64];
        let one = closed_loop(&service, 8, 1, 8);
        let four = closed_loop(&service, 8, 4, 8);
        assert!(
            four.throughput_qps > one.throughput_qps * 2.0,
            "4 workers should far outpace 1: {} vs {}",
            four.throughput_qps,
            one.throughput_qps
        );
    }

    #[test]
    fn overload_sheds_and_accounts_for_every_request() {
        // 12 clients all submit at t=0 against 2 workers + depth 2:
        // 8 requests shed in the very first wave.
        let service = vec![5_000u64; 24];
        let (point, mask) = closed_loop_detail(&service, 12, 2, 2);
        assert!(point.shed > 0, "C > W + D must shed");
        assert_eq!(point.completed + point.shed, point.offered);
        assert_eq!(
            mask.iter().filter(|&&served| served).count(),
            point.completed
        );
    }

    #[test]
    fn identical_inputs_produce_identical_points() {
        let service: Vec<u64> = (0..50).map(|i| 500 + (i % 7) * 300).collect();
        let a = closed_loop(&service, 6, 2, 4);
        let b = closed_loop(&service, 6, 2, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn timeline_stamps_are_internally_consistent() {
        let service: Vec<u64> = (0..40).map(|i| 1_000 + (i % 5) * 700).collect();
        let (point, timings) = closed_loop_timeline(&service, 8, 2, 4);
        assert_eq!(timings.len(), service.len());
        let mut served = 0;
        for (i, t) in timings.iter().enumerate() {
            if !t.served {
                assert_eq!(t.latency_us(), 0);
                continue;
            }
            served += 1;
            assert!(t.started_us >= t.submitted_us, "request {i} started early");
            // Service occupies exactly the oracle's metered time.
            assert_eq!(t.completed_us - t.started_us, service[i]);
            assert_eq!(t.latency_us(), t.queue_wait_us() + service[i]);
        }
        assert_eq!(served, point.completed);
        // The detail mask is the timeline's served flags.
        let (_, mask) = closed_loop_detail(&service, 8, 2, 4);
        let flags: Vec<bool> = timings.iter().map(|t| t.served).collect();
        assert_eq!(mask, flags);
    }

    #[test]
    fn derived_ms_fields_mirror_integer_us() {
        let service: Vec<u64> = (0..30).map(|i| 777 + i * 13).collect();
        let point = closed_loop(&service, 4, 2, 8);
        assert_eq!(point.p50_ms, point.p50_us as f64 / 1000.0);
        assert_eq!(point.p95_ms, point.p95_us as f64 / 1000.0);
        assert_eq!(point.p99_ms, point.p99_us as f64 / 1000.0);
    }
}
