//! Driving live multi-process deployments: the coordinator-side
//! [`ClusterClient`] and an in-process host for partition services
//! (tests and single-machine smoke runs use it; `mobieyes-serve`
//! runs the same service loop behind a real process boundary).

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::mobieyes_run::MobiEyesSim;
use mobieyes_cluster::{dial_partition, serve_partition};
use mobieyes_net::{Endpoint, FramedConn, Listener, TransportError};
use mobieyes_telemetry::Telemetry;
use std::thread::JoinHandle;
use std::time::Duration;

/// The coordinator side of a live deployment: one framed connection per
/// partition service, agents and the agent-facing network staying in this
/// process. Only the server tier's partition ops cross the wire.
pub struct ClusterClient {
    pub(crate) conns: Vec<FramedConn>,
}

impl ClusterClient {
    /// Connects to every endpoint in partition order through
    /// [`dial_partition`]: retrying each for up to `timeout` (freshly
    /// spawned services may still be binding), completing the hello
    /// exchange and checking the service at position `p` actually
    /// announces partition `p`.
    pub fn connect(endpoints: &[Endpoint], timeout: Duration) -> Result<Self, TransportError> {
        let conns = endpoints
            .iter()
            .enumerate()
            .map(|(p, ep)| dial_partition(ep, p as u32, timeout))
            .collect::<Result<_, _>>()?;
        Ok(ClusterClient { conns })
    }

    /// The number of connected partition services.
    pub fn num_partitions(&self) -> usize {
        self.conns.len()
    }

    /// Builds the remote deployment. The cluster is sharded over the
    /// connected services — one partition each, regardless of
    /// `config.partitions` (which selects the in-process layout only).
    pub fn into_sim(self, config: SimConfig, telemetry: Telemetry) -> MobiEyesSim {
        MobiEyesSim::with_remote_cluster(config, telemetry, self.conns)
    }

    /// Runs the configured workload to completion against the live
    /// services, shuts them down, and returns the run metrics plus the
    /// final result digest.
    pub fn run(self, config: SimConfig) -> (RunMetrics, u64) {
        let mut sim = self.into_sim(config, Telemetry::new());
        let metrics = sim.run();
        let digest = sim.result_digest();
        sim.shutdown();
        (metrics, digest)
    }
}

/// Partition services hosted on in-process threads — the same service
/// loop `mobieyes-serve partition` runs, minus the process boundary.
/// Useful wherever a test needs real sockets without managing child
/// processes.
pub struct HostedPartitions {
    endpoints: Vec<Endpoint>,
    handles: Vec<JoinHandle<Result<(), TransportError>>>,
}

impl HostedPartitions {
    /// Binds `n` fresh endpoints — loopback TCP with OS-assigned ports, or
    /// Unix-domain sockets in the temp dir — and serves one partition on
    /// each from its own thread.
    pub fn spawn(n: usize, uds: bool) -> Result<Self, TransportError> {
        let mut endpoints = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for p in 0..n {
            let ep = if uds {
                Endpoint::Uds(unique_service_path(p))
            } else {
                Endpoint::Tcp("127.0.0.1:0".into())
            };
            let listener = Listener::bind(&ep)?;
            endpoints.push(listener.local_endpoint()?);
            handles.push(std::thread::spawn(move || {
                serve_partition(listener, p as u32)
            }));
        }
        Ok(HostedPartitions { endpoints, handles })
    }

    /// The bound service endpoints, in partition order.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Waits for every service to exit its loop; returns the first
    /// failure, if any. Call after the client has sent `Shutdown` (by
    /// dropping through [`ClusterClient::run`] or `MobiEyesSim::shutdown`),
    /// or this blocks forever.
    pub fn join(self) -> Result<(), TransportError> {
        let mut first: Option<TransportError> = None;
        for handle in self.handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first.get_or_insert(e);
                }
                Err(_) => {
                    first.get_or_insert(TransportError::Protocol(
                        "partition service thread panicked".into(),
                    ));
                }
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A fresh, collision-free Unix-domain socket path for a hosted service.
fn unique_service_path(partition: usize) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mobieyes-part{partition}-{}-{seq}.sock",
        std::process::id()
    ))
}
