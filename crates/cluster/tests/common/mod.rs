//! Thread-hosted partition services for the integration tests: the same
//! service loop `mobieyes-serve` runs, on loopback TCP.

use mobieyes_cluster::{dial_partition, serve_partition, ClusterServer};
use mobieyes_net::{Endpoint, FramedConn, Listener, TransportError};
use std::thread::JoinHandle;
use std::time::Duration;

pub type Services = Vec<JoinHandle<Result<(), TransportError>>>;

/// Serves `n` partitions, one thread each, and returns the coordinator's
/// hello-completed connections to them in partition order.
pub fn host_partitions(n: usize) -> (Vec<FramedConn>, Services) {
    let mut conns = Vec::new();
    let mut services = Vec::new();
    for p in 0..n as u32 {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
        let endpoint = listener.local_endpoint().expect("endpoint");
        services.push(std::thread::spawn(move || serve_partition(listener, p)));
        conns.push(dial_partition(&endpoint, p, Duration::from_secs(5)).expect("hello"));
    }
    (conns, services)
}

/// Shuts the services down through `cluster` and joins them.
pub fn stop(mut cluster: ClusterServer, services: Services) {
    cluster.shutdown_remote();
    for s in services {
        s.join().expect("service thread").expect("clean exit");
    }
}
