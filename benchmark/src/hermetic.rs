//! Keeping a run to itself: a scrubbed environment, one scratch directory
//! per harness process, and child processes that never outlive it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Removes every `MOBIEYES_*` variable from this process's environment
/// (children inherit the result). `SimConfig::resolved_*()` falls back to
/// these variables for any knob left at its default, so a stray
/// `MOBIEYES_THREADS=8` in the caller's shell would silently change what
/// is measured. Must run before any thread is spawned.
pub fn scrub_environment() {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MOBIEYES_"))
        .collect();
    for key in stale {
        std::env::remove_var(key);
    }
}

/// A scratch directory holding one harness process's sockets and store
/// directories; removed when dropped, on success, error and panic alike.
pub struct ScratchRoot {
    path: PathBuf,
}

impl ScratchRoot {
    /// Creates `<base>/mobieyes-benchmark-<pid>-<workload>-<rep>`.
    pub fn create(base: &Path, workload: &str, rep: &str) -> std::io::Result<ScratchRoot> {
        let path = base.join(format!(
            "mobieyes-benchmark-{}-{workload}-{rep}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchRoot { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Child processes that are killed and reaped when the guard drops, so a
/// failed run leaves no `mobieyes-serve` behind.
#[derive(Default)]
pub struct Children {
    children: Vec<Child>,
}

impl Children {
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Spawns `mobieyes-serve partition` listening on `socket` — a path
    /// relative to the working directory it inherits, which keeps it far
    /// below the 108-byte limit of `sun_path` wherever the checkout lives
    /// — and waits for its `READY` line.
    pub fn spawn_partition(
        &mut self,
        serve: &Path,
        partition: usize,
        socket: &str,
    ) -> Result<(), String> {
        let mut child = Command::new(serve)
            .args(["partition", "--partition", &partition.to_string()])
            .args(["--listen", &format!("uds:{socket}")])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        self.children.push(child);
        let mut ready = String::new();
        BufReader::new(stdout)
            .read_line(&mut ready)
            .map_err(|e| format!("reading READY from partition {partition}: {e}"))?;
        if !ready.starts_with("READY ") {
            return Err(format!(
                "partition {partition} printed {ready:?} instead of READY"
            ));
        }
        Ok(())
    }

    /// Waits up to `timeout` for every child to exit on its own (they do
    /// after `Shutdown`); returns whether all exited with status 0.
    /// Stragglers are left to the drop guard.
    pub fn wait_clean_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut clean = true;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        clean = false;
                        break;
                    }
                }
            }
        }
        clean
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this process — and every thread and child it starts from now
/// on — to the CPU it is running on. Returns that CPU.
///
/// The multi-process workload is an RPC ping-pong: the coordinator sleeps
/// while a partition works and the other way round. Left to the
/// scheduler, the processes sometimes share a core and sometimes do not,
/// and on a virtualised host a cross-core wake-up (inter-processor
/// interrupt plus waking a halted virtual CPU) costs several times a
/// same-core one: the same tick then takes 10 ms or 50 ms depending on
/// where the scheduler happened to put things, flipping from run to run.
/// On one core every hand-over is a plain context switch.
pub fn pin_to_current_cpu() -> Result<u32, String> {
    // `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return Err(format!("sched_getcpu returned {cpu}"));
    }
    mask[cpu as usize / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the byte
    // length passed, which the kernel only reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu as u32)
}

/// Sends `SIGKILL` to every process of the group led by `leader` — an
/// episode process and whatever partition children it spawned.
pub fn kill_process_group(leader: u32) {
    const SIGKILL: i32 = 9;
    // SAFETY: `kill(2)` takes two plain integers and touches no memory of
    // this process; a stale or invalid id only makes it return an error.
    unsafe {
        kill(-(leader as i32), SIGKILL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_root_is_removed_on_drop() {
        let base = std::env::temp_dir();
        let root = ScratchRoot::create(&base, "unit", "0").unwrap();
        let path = root.path().to_path_buf();
        std::fs::write(path.join("p0.sock"), b"").unwrap();
        assert!(path.is_dir());
        drop(root);
        assert!(!path.exists());
    }

    #[test]
    fn pinning_is_inherited_by_children() {
        // In a thread of its own: affinity is per thread, and the other
        // tests' threads should keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_current_cpu().unwrap();
            let status = Command::new("cat")
                .arg("/proc/self/status")
                .output()
                .unwrap();
            let text = String::from_utf8(status.stdout).unwrap();
            let allowed = text
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap()
                .trim()
                .to_string();
            assert_eq!(allowed, cpu.to_string());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn children_are_reaped_on_drop() {
        let mut guard = Children::default();
        let child = Command::new("sleep").arg("60").spawn().unwrap();
        let pid = child.id();
        guard.children.push(child);
        assert!(Path::new(&format!("/proc/{pid}")).exists());
        drop(guard);
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
    }
}
