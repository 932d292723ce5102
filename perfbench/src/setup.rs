//! The set-up every workload pays before its first timed job: loading
//! the pinned classifier bundle and binding and starting an in-process
//! fleet daemon.

use lkas::identify::ClassifierBundle;
use lkas_bench::fleet::BenchRunner;
use lkas_fleet::proto::RequestOp;
use lkas_fleet::{serve, Event, FleetClient, FleetConfig};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The pinned trained classifier bundle (quick training scale, seed 42),
/// checked in beside the benchmark so that no run trains.
pub fn bundle_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data").join("classifiers.json")
}

/// Loads the pinned bundle.
pub fn load_bundle() -> Result<Arc<ClassifierBundle>, String> {
    let path = bundle_path();
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bundle = ClassifierBundle::from_json(&json)
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    Ok(Arc::new(bundle))
}

/// An in-process fleet daemon serving [`BenchRunner`] on loopback.
pub struct Daemon {
    pub addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds an ephemeral loopback port and starts `serve` with one
    /// worker. The port is listening on return, so clients may connect
    /// at once.
    pub fn start() -> Result<Daemon, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("no local address: {e}"))?;
        let config = FleetConfig { workers: 1, ..FleetConfig::default() };
        let thread = std::thread::Builder::new()
            .name("perfbench-fleetd".to_string())
            .spawn(move || serve(listener, Arc::new(BenchRunner), config))
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        Ok(Daemon { addr, thread: Some(thread) })
    }

    /// Asks the daemon to shut down and waits for its thread.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else { return Ok(()) };
        let acked = connect(self.addr).and_then(|mut c| {
            c.send(RequestOp::Shutdown).map_err(|e| format!("cannot send shutdown: {e}"))?;
            match c.next_event().map_err(|e| e.to_string())? {
                Event::ShuttingDown => Ok(()),
                other => Err(format!("unexpected shutdown answer {other:?}")),
            }
        });
        let joined = thread.join().map_err(|_| "daemon thread panicked".to_string())?;
        acked?;
        joined.map_err(|e| format!("daemon failed: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Opens a connection to the daemon with the program's own client.
pub fn connect(addr: SocketAddr) -> Result<FleetClient, String> {
    FleetClient::connect(addr).map_err(|e| format!("cannot connect: {e}"))
}
