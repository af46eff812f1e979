//! Radb — the bulk-message radix sort (paper §4.1, last row of Table 3).
//!
//! Identical to [`crate::radix`] except for the distribution phase: "after
//! the global histogram phase, all keys are sent to their destination
//! processor in one bulk message". Communication drops from one short
//! message per key to one bulk message per destination, making Radb nearly
//! insensitive to overhead and gap but (mildly) sensitive to bulk
//! bandwidth — exactly the contrast the paper draws.

use nowlab_core::{RunOutcome, RunSpec, SweepableApp};

use crate::common::{block_range, execute, DegradePolicy};
use crate::radix::{radix_body, RadixParams};

/// The bulk radix sort application.
#[derive(Clone, Debug)]
pub struct Radb {
    params: RadixParams,
}

impl Radb {
    /// Creates the app with the given parameters. Panics if `key_bits`
    /// exceeds 32: a bulk message packs each key under its 32-bit
    /// destination offset, and a wider key would overwrite it.
    pub fn new(params: RadixParams) -> Self {
        assert!(
            params.key_bits <= 32,
            "RadixParams::key_bits = {}: Radb packs (offset << 32) | key, so keys have 32 bits at most",
            params.key_bits
        );
        Radb { params }
    }
}

impl SweepableApp for Radb {
    fn name(&self) -> &str {
        "Radb"
    }

    fn run(&self, spec: &RunSpec) -> RunOutcome {
        let params = self.params;
        let seed = spec.seed;
        // The other half of the packed word: offsets within a block.
        let block = block_range(params.total_keys, spec.procs, 0).len();
        assert!(
            block as u64 <= 1 << 32,
            "RadixParams::total_keys: a block of {block} keys has offsets wider than 32 bits"
        );
        execute(
            spec,
            DegradePolicy::Abort,
            |_| {},
            move |ctx| radix_body(ctx, params, seed, true),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_correctly_and_uses_bulk() {
        // Large enough that key payload outweighs the fixed histogram
        // chatter.
        let app = Radb::new(RadixParams {
            total_keys: 16 * 1024,
            key_bits: 16,
            digit_bits: 8,
        });
        let out = app.run(&RunSpec::new(4));
        assert!(out.completed);
        // The keys move as bulk payload: bulk bytes dwarf short-message
        // bytes.
        assert!(
            out.stats.bulk_kb_per_s() > out.stats.small_kb_per_s(),
            "bulk {} KB/s vs small {} KB/s",
            out.stats.bulk_kb_per_s(),
            out.stats.small_kb_per_s()
        );
    }

    #[test]
    #[should_panic(expected = "RadixParams::key_bits = 40")]
    fn keys_wider_than_the_packed_word_are_refused() {
        Radb::new(RadixParams {
            total_keys: 2_048,
            key_bits: 40,
            digit_bits: 8,
        });
    }

    #[test]
    #[should_panic(expected = "RadixParams::total_keys: a block of 4294967297 keys")]
    fn blocks_longer_than_the_packed_offset_are_refused() {
        // Refused before anything is allocated.
        let app = Radb::new(RadixParams {
            total_keys: (2 << 32) + 2,
            key_bits: 16,
            digit_bits: 8,
        });
        app.run(&RunSpec::new(2));
    }

    #[test]
    fn radb_sends_far_fewer_messages_than_radix() {
        let params = RadixParams::small();
        let radb = Radb::new(params).run(&RunSpec::new(4));
        let radix = crate::radix::Radix::new(params).run(&RunSpec::new(4));
        assert!(radb.completed && radix.completed);
        assert!(
            radix.stats.total_sends() > 4 * radb.stats.total_sends(),
            "radix {} vs radb {}",
            radix.stats.total_sends(),
            radb.stats.total_sends()
        );
        // Both sorts produce the same keys.
        assert_eq!(radb.check, radix.check);
    }

    #[test]
    fn both_sorts_agree_on_empty_uneven_and_odd_pass_inputs() {
        // A processor with no keys (5 keys on 7), blocks of unequal
        // length (4 099 keys on 5) and three passes, so the keys Radb
        // reads back after each pass, not its input, are what it checks.
        for (total_keys, key_bits, digit_bits, procs) in
            [(5, 16, 8, 7), (4_099, 16, 8, 5), (2_048, 12, 4, 4)]
        {
            let params = RadixParams {
                total_keys,
                key_bits,
                digit_bits,
            };
            let spec = RunSpec::new(procs);
            let radb = Radb::new(params).run(&spec);
            let radix = crate::radix::Radix::new(params).run(&spec);
            assert!(radb.completed && radix.completed, "{params:?} on {procs}");
            assert_eq!(radb.check, radix.check, "{params:?} on {procs}");
        }
    }

    #[test]
    fn radb_is_faster_than_radix_at_high_overhead() {
        use nowlab_core::{Axis, NetConfig};
        let params = RadixParams::small();
        let knobs = Axis::Overhead
            .knobs_for(&NetConfig::berkeley_now().machine, 53.0)
            .unwrap();
        let spec = RunSpec::new(4).with_net(NetConfig::berkeley_now().with_knobs(knobs));
        let radb = Radb::new(params).run(&spec);
        let radix = crate::radix::Radix::new(params).run(&spec);
        assert!(
            radb.runtime < radix.runtime / 2,
            "radb {} vs radix {}",
            radb.runtime,
            radix.runtime
        );
    }
}
