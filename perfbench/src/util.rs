//! Small shared helpers: order statistics, digests, process plumbing and
//! the `key=value` line protocol between the harness and its children.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

pub type BoxError = Box<dyn std::error::Error>;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a, 64 bit: a stable digest of output bytes and f64 bit patterns.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of the calling process in kB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// A `key=value` record, the payload of a child's `done` line.
pub type Record = BTreeMap<String, String>;

pub fn parse_record(fields: &str) -> Record {
    fields
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

pub fn field<T: std::str::FromStr>(record: &Record, key: &str) -> Result<T, BoxError> {
    record
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child record lacks a valid `{key}`").into())
}

/// Formats `key=value` pairs as one protocol line body.
pub fn render_record(pairs: &[(&str, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One benchmark child: this same binary re-executed in a worker role. It
/// sets up, prints `ready`, waits for `go` on stdin, does the timed work
/// and prints `done k=v ...`.
pub struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts a child. With `pin`, the child is bound to one of the CPUs
    /// this process may use (`pin` modulo their count): it inherits the
    /// affinity the calling thread holds while starting it.
    pub fn launch(args: &[String], pin: Option<usize>) -> Result<Worker, BoxError> {
        let exe = std::env::current_exe()?;
        let mut command = Command::new(exe);
        command
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let saved = pin.and_then(affinity::pin_to);
        // lint:allow(thread-pool): starts a child process (a campaign worker
        // or an isolated benchmark repetition), not a thread.
        let started = command.spawn();
        if let Some(mask) = saved {
            affinity::set(&mask);
        }
        let mut child = started?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("child stdout was not piped")?;
        Ok(Worker {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    /// Reads protocol lines until one starting with `tag`; returns the
    /// rest of that line. A child that reports `error` or exits early
    /// fails the read.
    pub fn expect(&mut self, tag: &str) -> Result<String, BoxError> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(format!("child exited before reporting `{tag}`").into());
            }
            let text = line.trim_end();
            if let Some(rest) = text.strip_prefix(tag) {
                return Ok(rest.trim().to_string());
            }
            if let Some(why) = text.strip_prefix("error") {
                return Err(format!("child failed: {}", why.trim()).into());
            }
        }
    }

    pub fn go(&mut self) -> Result<(), BoxError> {
        let stdin = self.stdin.as_mut().ok_or("child stdin already closed")?;
        stdin.write_all(b"go\n")?;
        stdin.flush()?;
        Ok(())
    }

    /// Closes stdin and waits for the child; a non-zero exit is an error.
    pub fn finish(mut self) -> Result<(), BoxError> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if !status.success() {
            return Err(format!("child exited with {status}").into());
        }
        Ok(())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // A worker abandoned on an error path must not outlive the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// CPU affinity of the calling thread, through the C library the standard
/// library already links (`sched_getaffinity(2)`, `sched_setaffinity(2)`).
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    fn get() -> Option<Mask> {
        let mut mask: Mask = [0; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    /// Binds the calling thread to allowed CPU number `k` (modulo their
    /// count) and returns the mask to restore afterwards.
    pub fn pin_to(k: usize) -> Option<Mask> {
        let saved = get()?;
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|c| saved[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let cpu = *cpus.get(k % cpus.len().max(1))?;
        let mut one: Mask = [0; WORDS];
        one[cpu / 64] |= 1 << (cpu % 64);
        set(&one).then_some(saved)
    }
}

/// Child side of the protocol: announce readiness and block until `go`.
pub fn ready_and_wait() -> Result<(), BoxError> {
    let mut out = std::io::stdout();
    writeln!(out, "ready")?;
    out.flush()?;
    let mut line = String::new();
    std::io::stdin().read_line(&mut line)?;
    if line.trim() != "go" {
        return Err("harness closed the pipe before `go`".into());
    }
    Ok(())
}

/// Child side of the protocol: the final record.
pub fn report_done(pairs: &[(&str, String)]) -> Result<(), BoxError> {
    let mut out = std::io::stdout();
    writeln!(out, "done {}", render_record(pairs))?;
    out.flush()?;
    Ok(())
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite values in Rust's shortest round-trip form (all
/// digits kept), non-finite ones as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
