//! Message format properties: for *randomized* protocol messages — every
//! `Uplink`, `Downlink` and `ClusterMsg` variant — the encoding
//! round-trips exactly, its length is the `wire_size` that drives all
//! messaging-cost accounting, and damaged bytes never panic the decoder
//! ([`common::check_format`]).
//!
//! Uses a seeded splitmix64 sweep so every run checks the same cases.

mod common;

use common::{check_format, rand_cluster, rand_downlink, rand_uplink, Rng};
use mobieyes_core::codec::to_bytes;
use mobieyes_net::WireSized;

fn sweep<T: WireSized + mobieyes_core::codec::Wire>(seed: u64, draw: fn(&mut Rng) -> T) -> Vec<T> {
    let mut rng = Rng(seed);
    let samples: Vec<T> = (0..256).map(|_| draw(&mut rng)).collect();
    for msg in &samples {
        assert_eq!(msg.wire_size(), to_bytes(msg).len());
    }
    samples
}

#[test]
fn uplink_format() {
    check_format(&sweep(0x5eed_c0de_c001, rand_uplink), 0x5eed_c0de_f001);
}

#[test]
fn downlink_format() {
    check_format(&sweep(0x5eed_c0de_c002, rand_downlink), 0x5eed_c0de_f002);
}

#[test]
fn cluster_format() {
    check_format(&sweep(0x5eed_c0de_c004, rand_cluster), 0x5eed_c0de_f004);
}
