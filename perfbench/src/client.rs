//! TCP clients of `dslog::net::NetServer`: a closed loop (each connection
//! sends its next request when the previous answer arrives) and an open
//! loop (requests are due on a fixed schedule; latency counts from the due
//! time, so a stall also delays the requests queued behind it).

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Send one request line and read its one-line answer.
    pub fn request(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    pub fn quit(mut self) {
        let _ = self.request("quit");
    }
}

/// What one request saw.
pub struct Sample {
    /// Index of the query in the pool.
    pub idx: usize,
    /// When the request was sent.
    pub sent: Instant,
    /// Send to answer, in seconds.
    pub rtt_s: f64,
    /// Client-observed latency in seconds: the round trip in a closed
    /// loop, and from the due time in an open loop.
    pub latency_s: f64,
    pub ok: bool,
    pub response_bytes: usize,
}

/// Called after every answer with the sample and the raw response; the
/// traced run hangs its per-request layer measurements here, and the
/// checker keeps the responses it will verify.
pub type OnAnswer<'a> = &'a (dyn Fn(&Sample, &str) + Sync);

pub struct LoopResult {
    pub samples: Vec<Sample>,
    /// Connection or transport failures (each also ends that connection).
    pub transport_errors: usize,
    pub elapsed_s: f64,
    /// Open loop only: how late each request was sent, in seconds.
    pub lag_s: Vec<f64>,
}

fn ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// `clients` connections, each cycling through `requests` from its own offset
/// until `duration` has passed.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[String],
    clients: usize,
    duration: Duration,
    on_answer: OnAnswer<'_>,
) -> LoopResult {
    let begin = Instant::now();
    let deadline = begin + duration;
    let per_client: Vec<(Vec<Sample>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let Ok(mut conn) = Conn::connect(addr) else {
                        return (samples, 1);
                    };
                    let mut i = c * requests.len() / clients.max(1);
                    while Instant::now() < deadline {
                        let idx = i % requests.len();
                        i += 1;
                        let sent = Instant::now();
                        let response = match conn.request(&requests[idx]) {
                            Ok(r) => r,
                            Err(_) => return (samples, 1),
                        };
                        let rtt_s = sent.elapsed().as_secs_f64();
                        let sample = Sample {
                            idx,
                            sent,
                            rtt_s,
                            latency_s: rtt_s,
                            ok: ok(response),
                            response_bytes: response.len(),
                        };
                        on_answer(&sample, response);
                        samples.push(sample);
                    }
                    conn.quit();
                    (samples, 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = begin.elapsed().as_secs_f64();
    let transport_errors = per_client.iter().map(|(_, e)| e).sum();
    LoopResult {
        samples: per_client.into_iter().flat_map(|(s, _)| s).collect(),
        transport_errors,
        elapsed_s,
        lag_s: Vec::new(),
    }
}

/// Sleeping alone overshoots by the timer slack (tens of µs), which the
/// open loop would count as latency: sleep to just short of `due`, then
/// yield until it passes.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One connection sending `requests` in order (wrapping) at `rate` requests
/// per second for `duration`.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[String],
    rate: f64,
    duration: Duration,
    on_answer: OnAnswer<'_>,
) -> LoopResult {
    let mut samples = Vec::new();
    let mut lag_s = Vec::new();
    let Ok(mut conn) = Conn::connect(addr) else {
        return LoopResult {
            samples,
            transport_errors: 1,
            elapsed_s: 0.0,
            lag_s,
        };
    };
    let begin = Instant::now();
    let n = (rate * duration.as_secs_f64()) as usize;
    let mut transport_errors = 0;
    for k in 0..n {
        let due = begin + Duration::from_secs_f64(k as f64 / rate);
        wait_until(due);
        let sent = Instant::now();
        lag_s.push(sent.saturating_duration_since(due).as_secs_f64());
        let idx = k % requests.len();
        let response = match conn.request(&requests[idx]) {
            Ok(r) => r,
            Err(_) => {
                transport_errors += 1;
                break;
            }
        };
        let sample = Sample {
            idx,
            sent,
            rtt_s: sent.elapsed().as_secs_f64(),
            latency_s: due.elapsed().as_secs_f64(),
            ok: ok(response),
            response_bytes: response.len(),
        };
        on_answer(&sample, response);
        samples.push(sample);
    }
    let elapsed_s = begin.elapsed().as_secs_f64();
    if transport_errors == 0 {
        conn.quit();
    }
    LoopResult {
        samples,
        transport_errors,
        elapsed_s,
        lag_s,
    }
}
