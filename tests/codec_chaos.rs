//! Adversarial robustness properties for the artifact codec (proptest).
//!
//! The persistent store treats any payload that fails [`Codec::decode`]
//! as a counted cache miss, so the decoder is the last line of defence
//! between corrupted bytes and the pipeline. These properties pin the
//! two guarantees that defence rests on:
//!
//! * **panic-freedom** — `from_bytes` on arbitrary byte mutations of a
//!   valid encoding (and on fully arbitrary byte soup) returns
//!   `Ok`/`Err`, never panics and never over-allocates;
//! * **no silently different artifact** — when a mutated payload *does*
//!   decode, the result is a self-consistent value: re-encoding it
//!   yields bytes that decode back to the same value, and for the
//!   injective structural encodings ([`Diagnostic`], [`Schedule`]) the
//!   re-encoding is bitwise identical to the mutated input, i.e. the
//!   decoder only ever accepts exact canonical encodings. (The
//!   [`CostTable`] map encoding normalises key order on decode, so it
//!   gets the fixpoint guarantee, not bitwise identity.)

use argo_adl::CoreId;
use argo_core::artifact::CostTable;
use argo_core::codec::Codec;
use argo_core::{Diagnostic, ErrorCode, Fingerprint, Stage};
use argo_htg::TaskId;
use argo_sched::Schedule;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

// --- generators ---------------------------------------------------------

/// Arbitrary Unicode strings, including multibyte code points, so the
/// length-prefixed UTF-8 framing is exercised at every byte width.
fn arb_string() -> BoxedStrategy<String> {
    vec(any::<u32>(), 0..8)
        .prop_map(|cs| {
            cs.into_iter()
                .map(|c| char::from_u32(c % 0x0011_0000).unwrap_or('\u{fffd}'))
                .collect()
        })
        .boxed()
}

fn arb_diagnostic() -> BoxedStrategy<Diagnostic> {
    (
        (0usize..Stage::ALL.len()).prop_map(|i| Stage::ALL[i]),
        (0usize..ErrorCode::ALL.len()).prop_map(|i| ErrorCode::ALL[i]),
        (any::<bool>(), arb_string()).prop_map(|(some, s)| some.then_some(s)),
        arb_string(),
    )
        .prop_map(|(stage, code, entity, message)| Diagnostic {
            stage,
            code,
            entity,
            message,
        })
        .boxed()
}

/// Codec-arbitrary schedules: the three columns need not agree on
/// length or ordering for the encoding layer, so none is imposed.
fn arb_schedule() -> BoxedStrategy<Schedule> {
    (
        vec(any::<usize>().prop_map(CoreId), 0..6),
        vec(any::<u64>(), 0..6),
        vec(any::<u64>(), 0..6),
    )
        .prop_map(|(assignment, start, finish)| Schedule {
            assignment,
            start,
            finish,
        })
        .boxed()
}

fn arb_cost_table() -> BoxedStrategy<CostTable> {
    vec((any::<usize>(), any::<u64>()), 0..8)
        .prop_map(|pairs| {
            CostTable::from(
                pairs
                    .into_iter()
                    .map(|(t, c)| (TaskId(t), c))
                    .collect::<BTreeMap<_, _>>(),
            )
        })
        .boxed()
}

// --- byte mutations -----------------------------------------------------

/// One deterministic corruption of a byte buffer. Offsets and lengths
/// are raw draws reduced modulo the buffer length at application time,
/// so the same plan applies to encodings of any size.
#[derive(Debug, Clone)]
struct Mutation {
    kind: u8,
    offset: usize,
    mask: u8,
    extra: Vec<u8>,
}

impl Mutation {
    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self.kind % 4 {
            // Flip at least one bit of one byte.
            0 => {
                if !out.is_empty() {
                    let at = self.offset % out.len();
                    out[at] ^= self.mask | 1;
                }
            }
            // Truncate anywhere, including to empty.
            1 => out.truncate(self.offset % (out.len() + 1)),
            // Splice arbitrary bytes in at any position.
            2 => {
                let at = self.offset % (out.len() + 1);
                out.splice(at..at, self.extra.iter().copied());
            }
            // Overwrite a run starting anywhere.
            _ => {
                if !out.is_empty() {
                    let at = self.offset % out.len();
                    for (i, b) in self.extra.iter().enumerate() {
                        if at + i >= out.len() {
                            break;
                        }
                        out[at + i] = *b;
                    }
                }
            }
        }
        out
    }
}

fn arb_mutation() -> BoxedStrategy<Mutation> {
    (
        any::<u8>(),
        any::<usize>(),
        any::<u8>(),
        vec(any::<u8>(), 1..12),
    )
        .prop_map(|(kind, offset, mask, extra)| Mutation {
            kind,
            offset,
            mask,
            extra,
        })
        .boxed()
}

// --- the properties -----------------------------------------------------

/// The shared corruption property: the valid encoding round-trips, and
/// the mutated one either fails cleanly or decodes to a self-consistent
/// value. `canonical` additionally requires that a successful decode
/// implies the input bytes *were* the canonical encoding — true for the
/// injective structural codecs, waived for normalising ones (maps).
fn check_mutation<T>(value: &T, mutation: &Mutation, canonical: bool)
where
    T: Codec + PartialEq + Debug,
{
    let bytes = value.to_bytes();
    let back = T::from_bytes(&bytes).expect("valid encoding must decode");
    assert_eq!(&back, value, "clean round-trip changed the value");

    let mutated = mutation.apply(&bytes);
    // Must not panic, whatever the bytes now say.
    if let Ok(decoded) = T::from_bytes(&mutated) {
        let reencoded = decoded.to_bytes();
        if canonical {
            assert_eq!(
                reencoded, mutated,
                "decoder accepted non-canonical bytes for {decoded:?}"
            );
        }
        // Whatever was decoded is a stable artifact, never a value that
        // silently drifts on the next store round-trip.
        let again = T::from_bytes(&reencoded).expect("re-encoding must decode");
        assert_eq!(again, decoded, "decoded artifact drifted on round-trip");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_diagnostic_encodings_never_panic_or_drift(
        d in arb_diagnostic(),
        m in arb_mutation(),
    ) {
        check_mutation(&d, &m, true);
    }

    #[test]
    fn mutated_schedule_encodings_never_panic_or_drift(
        s in arb_schedule(),
        m in arb_mutation(),
    ) {
        check_mutation(&s, &m, true);
    }

    #[test]
    fn mutated_cost_table_encodings_never_panic_or_drift(
        t in arb_cost_table(),
        m in arb_mutation(),
    ) {
        // BTreeMap decode normalises key order, so only the fixpoint
        // guarantee applies — never bitwise canonicality.
        check_mutation(&t, &m, false);
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_any_decoder(
        bytes in vec(any::<u8>(), 0..64),
    ) {
        // No structure at all: every decoder must reject or accept
        // without panicking and without multi-gigabyte allocations
        // (read_len caps collection lengths by the remaining payload).
        let _ = Diagnostic::from_bytes(&bytes);
        let _ = Schedule::from_bytes(&bytes);
        let _ = CostTable::from_bytes(&bytes);
        let _ = Fingerprint::from_bytes(&bytes);
    }
}
