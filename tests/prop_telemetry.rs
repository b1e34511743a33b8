//! Property tests for the telemetry layer: the enclave's counter
//! conservation invariant (`processed = forwarded + dropped + punted`)
//! must hold for every interleaving of pass/drop/punt/queue verdicts,
//! the punt counter must agree with the punt mailbox, the log2
//! latency histogram's percentiles must bracket the true sample
//! percentiles within one bucket, and the one bounded `Ring` every
//! telemetry buffer is built on must keep exactly the newest items and
//! count exactly what it recorded and evicted.

use eden::core::{native_function, ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden::lang::{Concurrency, Schema};
use eden::netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};
use eden::telemetry::{bucket_bound, bucket_of, LogHistogram, Ring};
use eden::vm::Outcome;
use proptest::prelude::*;

/// An enclave with four native functions on classes 1–4, one per verdict:
/// class 1 passes, class 2 drops, class 3 punts, class 4 queues.
fn verdict_enclave() -> Enclave {
    let mut e = Enclave::new(EnclaveConfig::default());
    let pass = e.install_function(native_function(
        "pass",
        Schema::new(),
        Concurrency::Parallel,
        Box::new(|_env| Ok(Outcome::Done)),
    ));
    let drop = e.install_function(native_function(
        "drop",
        Schema::new(),
        Concurrency::Parallel,
        Box::new(|env| {
            env.drop_packet()?;
            Ok(Outcome::Dropped)
        }),
    ));
    let punt = e.install_function(native_function(
        "punt",
        Schema::new(),
        Concurrency::Parallel,
        Box::new(|env| {
            env.to_controller()?;
            Ok(Outcome::SentToController)
        }),
    ));
    let queue = e.install_function(native_function(
        "queue",
        Schema::new(),
        Concurrency::Parallel,
        Box::new(|env| {
            env.set_queue(1, 100)?;
            Ok(Outcome::Done)
        }),
    ));
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), pass);
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(2)), drop);
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(3)), punt);
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(4)), queue);
    e
}

fn classed(class: u32, payload: usize) -> Packet {
    let mut p = Packet::tcp(1, 2, TcpHeader::default(), payload);
    p.meta = Some(EdenMeta {
        classes: vec![class],
        msg_id: u64::from(class),
        msg_size: payload as i64,
        ..Default::default()
    });
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every processed packet is accounted for exactly once
    /// as forwarded, dropped, or punted — under arbitrary streams mixing
    /// all four verdicts and unmatched classes.
    #[test]
    fn counters_conserve_under_random_streams(
        stream in proptest::collection::vec((0u32..6, 1usize..1460), 1..300),
    ) {
        let mut e = verdict_enclave();
        let mut rng = SimRng::new(3);
        let mut expect_punts = 0u64;
        for (i, (class, payload)) in stream.iter().enumerate() {
            let mut p = classed(*class, *payload);
            e.process(&mut p, &mut rng, Time::from_nanos(i as u64));
            if *class == 3 {
                expect_punts += 1;
            }
        }
        prop_assert_eq!(e.stats.packets, stream.len() as u64);
        prop_assert!(
            e.stats.conserved(),
            "processed {} != forwarded {} + dropped {} + punted {}",
            e.stats.packets, e.stats.forwarded, e.stats.dropped,
            e.stats.punted_to_controller
        );
        prop_assert_eq!(e.stats.punted_to_controller, expect_punts);
        prop_assert_eq!(e.stats.faults, 0);

        // the snapshot reports the same invariant
        let snap = e.stats_snapshot();
        prop_assert!(snap.enclave.conserved());
        prop_assert_eq!(snap.enclave, e.stats);
    }

    /// The punt mailbox and the punt counter agree: `take_punted` yields
    /// exactly as many packets as `punted_to_controller` counted, and a
    /// second take yields nothing without disturbing the counter.
    #[test]
    fn take_punted_agrees_with_punt_counter(
        stream in proptest::collection::vec(1u32..5, 1..100),
    ) {
        let mut e = verdict_enclave();
        let mut rng = SimRng::new(4);
        for (i, class) in stream.iter().enumerate() {
            let mut p = classed(*class, 600);
            e.process(&mut p, &mut rng, Time::from_nanos(i as u64));
        }
        let punted = e.take_punted();
        prop_assert_eq!(punted.len() as u64, e.stats.punted_to_controller);
        let all_class3 = punted
            .iter()
            .all(|p| p.meta.as_ref().is_some_and(|m| m.classes.contains(&3)));
        prop_assert!(all_class3, "only class-3 packets are punted");
        prop_assert!(e.take_punted().is_empty(), "mailbox drained");
        prop_assert_eq!(
            e.stats.punted_to_controller,
            stream.iter().filter(|&&c| c == 3).count() as u64,
            "draining the mailbox must not reset the counter"
        );
    }

    /// A `Ring` driven by random pushes and drains agrees with a `Vec`
    /// model: it never holds more than its capacity, it keeps the newest
    /// items in push order, a drain yields the oldest, and `recorded` /
    /// `evicted` are exact. Capacity 0 keeps nothing.
    #[test]
    fn ring_matches_a_vec_model(
        capacity in 0usize..6,
        ops in proptest::collection::vec((0u8..4, 0u32..1000), 0..200),
    ) {
        let mut ring = Ring::new(capacity);
        let mut model: Vec<u32> = Vec::new();
        let (mut pushed, mut drained) = (0u64, 0u64);
        for (op, x) in ops {
            if op < 3 {
                ring.push(x);
                model.push(x);
                pushed += 1;
                let over = model.len().saturating_sub(capacity);
                model.drain(..over);
            } else {
                let max = (x % 4) as usize;
                let got: Vec<u32> = ring.drain(max).collect();
                let n = max.min(model.len());
                let want: Vec<u32> = model.drain(..n).collect();
                prop_assert_eq!(got, want, "a drain yields the oldest");
                drained += n as u64;
            }
            prop_assert!(ring.len() <= capacity);
            let kept: Vec<u32> = ring.iter().copied().collect();
            prop_assert_eq!(&kept, &model, "the newest items, in order");
            prop_assert_eq!(ring.recorded(), pushed);
            prop_assert_eq!(ring.evicted(), pushed - drained - model.len() as u64);
        }
    }

    /// The log2 histogram's quantiles bracket the *true* nearest-rank
    /// percentile of the recorded samples to within one power-of-two
    /// bucket: the reported value is exactly the upper bound of the
    /// bucket the true percentile falls in, so
    /// `true <= reported` and `reported < 2 * (true + 1)`.
    #[test]
    fn histogram_percentiles_bracket_true_percentiles(
        samples in proptest::collection::vec(
            // span the whole dynamic range: tiny latencies up to huge
            // outliers that land in the saturating top bucket
            prop_oneof![0u64..64, 1u64..100_000, 1u64..u64::MAX],
            1..500,
        ),
    ) {
        let mut hist = LogHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        for q in [0.50, 0.99, 0.999] {
            // nearest-rank definition, 1-based
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let reported = hist.quantile(q).expect("histogram is non-empty");

            // exactly the bound of the bucket holding the true sample
            prop_assert_eq!(reported, bucket_bound(bucket_of(truth)));
            // bracketed from below by the bucket's floor...
            let idx = bucket_of(truth);
            if idx > 0 {
                prop_assert!(truth > bucket_bound(idx - 1));
            }
            // ...and from above by its bound
            prop_assert!(truth <= reported);
        }
    }
}
