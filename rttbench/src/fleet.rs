//! `fleet-hot` and `fleet-cold`: two generator threads, each holding one
//! long-lived connection that multiplexes many sessions.
//!
//! A pass is an open-loop phase (Poisson arrivals at a fixed offered rate,
//! latency timed from each session's due time) followed by a saturation
//! phase (a fixed number of sessions in flight per connection).  The
//! generator never runs the prover: every (input, behaviour) pair was
//! measured beforehand, so answering a challenge is absorbing its nonce into
//! a prefix-absorbed MAC, finalizing, and encoding the envelope.
//!
//! A connection that refuses evidence with `AT_CAPACITY` is full: the
//! server never forgets a session id a connection addressed, so it refuses
//! every fresh one from its 4097th on.  The generator then sends nothing
//! more on it, waits for the replies it still owes, and replaces it with a
//! new connection, where every refused session runs again from its session
//! request (a replay resends its frame).  The refusals are counted; their
//! round trips and the reconnects cost the saturation phase's throughput.

use crate::record::{Judged, PassLog, Phase, SessionRecord, Source, Status};
use crate::sys;
use crate::workload::{self, Premeasured, STREAM_ARRIVALS, STREAM_SESSIONS};
use lofat::wire::{code, Envelope, Message, SessionId};
use lofat_crypto::Nonce;
use lofat_net::frame::write_frame;
use lofat_net::{Connection, NetLimits};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::ops::{Index, IndexMut};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Generator threads, one connection each: no more load threads than the
/// 2 CPUs the benchmark is sized for.
pub const CONNECTIONS: usize = 2;
/// Open-loop offered rate over both connections, in sessions per second.
pub const OFFERED_RATE: f64 = 300.0;
/// Longest open-loop phase.  300/s for 20 s keeps each connection's
/// open-loop sessions (3000) under its 4096-session cap, so no session of
/// the latency sample is refused and run again: the refusals and reconnects
/// fall in the saturation phase.  The low rate spreads the sample over
/// enough time to average the vCPU stalls and the speed swings of a
/// virtualised host.
pub const MAX_OPEN_SECONDS: f64 = 20.0;
/// Sessions in flight per connection during saturation.
pub const IN_FLIGHT: usize = 32;
/// How long a phase waits for outstanding replies before timing them out.
pub const DRAIN: Duration = Duration::from_secs(10);
/// A replay re-sends the evidence of the last honest session at least this
/// many sessions earlier on the same generator thread.
const REPLAY_DISTANCE: usize = 64;
/// Finished sessions are kept this many sessions back for replays to reuse.
const KEEP_EVIDENCE: usize = 4 * REPLAY_DISTANCE;

/// The traffic mix of a fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of sessions answered with a forged signature first.
    pub forge: f64,
    /// Share of sessions that replay an already accepted frame.
    pub replay: f64,
    /// Share of sessions whose execution is attacked.
    pub attack: f64,
}

impl Mix {
    /// Honest sessions only.
    pub const HONEST: Mix = Mix { forge: 0.0, replay: 0.0, attack: 0.0 };
    /// One session in ten adversarial, split evenly over the three classes.
    pub const ADVERSARIAL: Mix = Mix { forge: 1.0 / 30.0, replay: 1.0 / 30.0, attack: 1.0 / 30.0 };
}

/// Timing of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Length of the open-loop phase.
    pub open: Duration,
    /// Length of the saturation phase.
    pub saturation: Duration,
}

impl Shape {
    /// Splits a pass of `seconds`: the open-loop phase takes 80% of it, at
    /// most [`MAX_OPEN_SECONDS`]; saturation takes the rest.
    pub fn for_seconds(seconds: f64) -> Self {
        let open = (0.8 * seconds).min(MAX_OPEN_SECONDS);
        Self {
            open: Duration::from_secs_f64(open),
            saturation: Duration::from_secs_f64(seconds - open),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Honest,
    Forge,
    Replay { target: usize },
    Attack { attack: usize },
}

/// Which frame a queued reply answers.  The server answers each
/// connection's frames strictly in arrival order, so replies match a FIFO.
#[derive(Debug, Clone, Copy)]
enum Awaiting {
    Challenge(usize),
    Forged(usize),
    Evidence(usize),
    Replay(usize),
}

impl Awaiting {
    fn slot(self) -> usize {
        match self {
            Awaiting::Challenge(i)
            | Awaiting::Forged(i)
            | Awaiting::Evidence(i)
            | Awaiting::Replay(i) => i,
        }
    }
}

/// A sent evidence frame awaiting its verdict.
struct Sent {
    session: SessionId,
    nonce: Nonce,
    source: Source,
    frame: Vec<u8>,
}

struct Slot {
    kind: Kind,
    input: usize,
    phase: Phase,
    start: Instant,
    sent_at: Instant,
    challenge: Option<(SessionId, Nonce)>,
    /// Honest evidence, kept while a forge resend or a replay may need it.
    honest: Option<Vec<u8>>,
    awaiting_verdict: Option<Sent>,
    status: Option<Status>,
    evidence_frames: u32,
    evidence_bytes: u64,
    spans: Vec<usize>,
}

/// The sessions a generator thread still needs, by index: every session
/// from the oldest one in flight, and at least the last [`KEEP_EVIDENCE`].
/// Older ones are dropped, so the generator's memory stays flat however
/// many sessions a pass runs.
struct Window {
    first: usize,
    slots: VecDeque<Slot>,
}

impl Window {
    /// Index of the next session.
    fn len(&self) -> usize {
        self.first + self.slots.len()
    }

    fn push(&mut self, slot: Slot) {
        self.slots.push_back(slot);
        while self.slots.len() > KEEP_EVIDENCE
            && self.slots.front().is_some_and(|s| s.status.is_some())
        {
            self.slots.pop_front();
            self.first += 1;
        }
    }
}

impl Index<usize> for Window {
    type Output = Slot;

    fn index(&self, index: usize) -> &Slot {
        &self.slots[index - self.first]
    }
}

impl IndexMut<usize> for Window {
    fn index_mut(&mut self, index: usize) -> &mut Slot {
        &mut self.slots[index - self.first]
    }
}

/// Per-connection generator state.
struct Generator<'a> {
    pre: &'a Premeasured,
    mix: Mix,
    addr: SocketAddr,
    conn_index: u64,
    stream: TcpStream,
    framer: Connection,
    /// Connections opened so far, this one included.
    connections: u64,
    /// The connection refused a session for its cap: it takes no new frame
    /// and is replaced once `awaiting` is empty.
    full: bool,
    /// Frames held back while the connection is full, with the replies
    /// they await; they go out on its successor.
    held: Vec<(Vec<u8>, Awaiting)>,
    rng: StdRng,
    slots: Window,
    /// Honest sessions of the last [`KEEP_EVIDENCE`], oldest first.
    honest_slots: VecDeque<usize>,
    awaiting: VecDeque<Awaiting>,
    parked: HashMap<usize, Vec<usize>>,
    in_flight: usize,
    /// End of the saturation phase's throughput window, once it started.
    window_end: Option<Instant>,
    dead: bool,
    log: PassLog,
    read_buf: Vec<u8>,
}

impl Generator<'_> {
    fn key(&self, slot: usize) -> u64 {
        (self.conn_index << 40) | slot as u64
    }

    /// Draws the next session of this connection's seeded sequence.
    fn new_slot(&mut self, phase: Phase, start: Instant) -> usize {
        let index = self.slots.len();
        let draw = workload::unit(&mut self.rng);
        let input = self.rng.gen_range(0..self.pre.inputs.len());
        let replay_target = index
            .checked_sub(REPLAY_DISTANCE)
            .and_then(|limit| {
                let at = self.honest_slots.partition_point(|&s| s <= limit);
                at.checked_sub(1).map(|i| self.honest_slots[i])
            })
            .filter(|&target| index - target < KEEP_EVIDENCE);
        let mix = self.mix;
        let kind = match replay_target {
            _ if draw < mix.forge => Kind::Forge,
            Some(target) if draw < mix.forge + mix.replay => Kind::Replay { target },
            _ if draw < mix.forge + mix.replay + mix.attack && !self.pre.attacks.is_empty() => {
                Kind::Attack { attack: self.rng.gen_range(0..self.pre.attacks.len()) }
            }
            _ => Kind::Honest,
        };
        let input = match kind {
            Kind::Attack { attack } => self.pre.attacks[attack].input,
            Kind::Replay { target } => self.slots[target].input,
            _ => input,
        };
        if kind == Kind::Honest {
            self.honest_slots.push_back(index);
        }
        while self.honest_slots.front().is_some_and(|&s| index - s >= KEEP_EVIDENCE) {
            self.honest_slots.pop_front();
        }
        self.slots.push(Slot {
            kind,
            input,
            phase,
            start,
            sent_at: start,
            challenge: None,
            honest: None,
            awaiting_verdict: None,
            status: None,
            evidence_frames: 0,
            evidence_bytes: 0,
            spans: Vec::new(),
        });
        self.in_flight += 1;
        index
    }

    /// Sends one frame and queues the reply it awaits, or holds it for the
    /// next connection while this one is full.  False when the connection
    /// failed.
    fn transmit(&mut self, bytes: &[u8], awaiting: Awaiting) -> bool {
        if self.full {
            self.held.push((bytes.to_vec(), awaiting));
            return true;
        }
        if !self.dead
            && write_frame(&mut self.stream, bytes, NetLimits::client().max_frame_bytes).is_err()
        {
            self.dead = true;
        }
        if !self.dead {
            self.awaiting.push_back(awaiting);
        }
        !self.dead
    }

    /// Replaces the full connection, which owes no more replies, and sends
    /// the frames held back for it.
    fn reconnect(&mut self) -> Result<(), String> {
        let t = Instant::now();
        self.stream = connect(self.addr).map_err(|e| format!("reconnect: {e}"))?;
        let key = connection_key(self.conn_index, self.connections);
        self.log.tracer.record("net.connect", key, t, Instant::now());
        self.connections += 1;
        self.framer = Connection::new(&NetLimits::client(), 0);
        self.full = false;
        for (frame, awaiting) in std::mem::take(&mut self.held) {
            self.slots[awaiting.slot()].sent_at = Instant::now();
            if !self.transmit(&frame, awaiting) {
                self.fail_outstanding(Status::Transport);
                break;
            }
        }
        Ok(())
    }

    /// Starts session `index`: a session request, or (replays) the resent
    /// frame once its target has its verdict.
    fn issue(&mut self, index: usize) {
        self.slots[index].sent_at = Instant::now();
        match self.slots[index].kind {
            Kind::Replay { target } if self.slots[target].status.is_none() => {
                self.parked.entry(target).or_default().push(index);
            }
            Kind::Replay { .. } => self.send_replay(index),
            _ => {
                let pre = self.pre;
                let request = &pre.inputs[self.slots[index].input].request;
                if !self.transmit(request, Awaiting::Challenge(index)) {
                    self.finish(index, Status::Transport);
                }
            }
        }
    }

    fn send_replay(&mut self, index: usize) {
        let Kind::Replay { target } = self.slots[index].kind else {
            unreachable!("only replays are parked")
        };
        let target_slot = &self.slots[target];
        let (Some(frame), Some((session, nonce))) = (&target_slot.honest, target_slot.challenge)
        else {
            // The target never sent evidence: there is no frame to replay,
            // and the session shares its target's fate.
            let status = target_slot.status.unwrap_or(Status::Transport);
            self.finish(index, status);
            return;
        };
        let sent = Sent {
            session,
            nonce,
            source: Source::Honest(target_slot.input),
            frame: frame.clone(),
        };
        self.send_evidence(index, sent, Awaiting::Replay(index));
    }

    /// Builds the evidence answering session `index`'s challenge from
    /// `source`, timing the signature and the encode.
    fn build(&mut self, index: usize, source: Source) -> Result<Sent, String> {
        let (session, nonce) = self.slots[index].challenge.expect("challenge received");
        let (template, forged) = self.pre.template(source);
        let key = self.key(index);
        let t = Instant::now();
        let signature = template.sign(&nonce);
        let signed = Instant::now();
        let frame = template.frame(session, nonce, signature, forged)?;
        let spans = &mut self.slots[index].spans;
        spans.extend(self.log.tracer.record("gen.sign", key, t, signed));
        spans.extend(self.log.tracer.record("wire.encode", key, signed, Instant::now()));
        Ok(Sent { session, nonce, source, frame })
    }

    fn send_evidence(&mut self, index: usize, sent: Sent, awaiting: Awaiting) {
        self.slots[index].sent_at = Instant::now();
        let sent_ok = self.transmit(&sent.frame, awaiting);
        let slot = &mut self.slots[index];
        slot.evidence_frames += 1;
        slot.evidence_bytes += sent.frame.len() as u64;
        slot.awaiting_verdict = Some(sent);
        if !sent_ok {
            self.finish(index, Status::Transport);
        }
    }

    fn span_since_sent(&mut self, name: &'static str, index: usize) {
        let key = self.key(index);
        let sent = self.slots[index].sent_at;
        self.slots[index].spans.extend(self.log.tracer.record(name, key, sent, Instant::now()));
    }

    /// Handles one reply frame.
    fn on_frame(&mut self, frame: Vec<u8>) -> Result<(), String> {
        let awaiting = self
            .awaiting
            .pop_front()
            .ok_or("fleet: the server sent a frame nobody was waiting for")?;
        let envelope =
            Envelope::decode(&frame).map_err(|e| format!("fleet: undecodable reply: {e}"))?;
        match (awaiting, envelope.message) {
            (Awaiting::Challenge(index), Message::Challenge(challenge)) => {
                self.span_since_sent("net.challenge", index);
                let input = self.slots[index].input;
                self.slots[index].challenge = Some((envelope.session, challenge.nonce));
                match self.slots[index].kind {
                    Kind::Honest => {
                        let sent = self.build(index, Source::Honest(input))?;
                        self.slots[index].honest = Some(sent.frame.clone());
                        self.send_evidence(index, sent, Awaiting::Evidence(index));
                    }
                    Kind::Forge => {
                        let honest = self.build(index, Source::Honest(input))?;
                        self.slots[index].honest = Some(honest.frame);
                        let forged = self.build(index, Source::Forged(input))?;
                        self.send_evidence(index, forged, Awaiting::Forged(index));
                    }
                    Kind::Attack { attack } => {
                        let sent = self.build(index, Source::Attack(attack))?;
                        self.send_evidence(index, sent, Awaiting::Evidence(index));
                    }
                    Kind::Replay { .. } => unreachable!("replays send no session request"),
                }
            }
            (Awaiting::Challenge(index), Message::Verdict(verdict)) => {
                self.span_since_sent("net.challenge", index);
                if verdict.reason_code != code::AT_CAPACITY {
                    return Err(format!(
                        "fleet: session request refused with code {} ({})",
                        verdict.reason_code, verdict.detail
                    ));
                }
                self.finish(index, Status::Refused(code::AT_CAPACITY));
            }
            (
                Awaiting::Forged(index) | Awaiting::Evidence(index) | Awaiting::Replay(index),
                Message::Verdict(verdict),
            ) => {
                self.span_since_sent("net.verdict", index);
                let sent = self.slots[index].awaiting_verdict.take().expect("evidence was sent");
                if verdict.reason_code == code::AT_CAPACITY {
                    // The connection is full: run the session again on the
                    // next one.
                    self.log.capacity_refusals += 1;
                    self.full = true;
                    match awaiting {
                        Awaiting::Replay(_) => self.send_evidence(index, sent, awaiting),
                        _ => self.issue(index),
                    }
                    return Ok(());
                }
                let expected = match (awaiting, self.slots[index].kind) {
                    (Awaiting::Forged(_), _) => code::BAD_SIGNATURE,
                    (Awaiting::Replay(_), _) => code::NONCE_REPLAYED,
                    (_, Kind::Attack { attack }) => self.pre.attacks[attack].expected,
                    _ => code::ACCEPTED,
                };
                if verdict.reason_code != expected {
                    return Err(format!(
                        "fleet: wrong verdict for {} ({:?}): code {} ({}), expected {expected}",
                        envelope.session,
                        self.slots[index].kind,
                        verdict.reason_code,
                        verdict.detail
                    ));
                }
                self.log.judge(&Judged::new(
                    sent.session.0,
                    sent.nonce,
                    sent.source,
                    &sent.frame,
                    &frame,
                    Instant::now(),
                ))?;
                if let Awaiting::Forged(_) = awaiting {
                    let input = self.slots[index].input;
                    let (session, nonce) = self.slots[index].challenge.expect("challenged");
                    let frame = self.slots[index].honest.clone().expect("kept for the resend");
                    let honest = Sent { session, nonce, source: Source::Honest(input), frame };
                    self.send_evidence(index, honest, Awaiting::Evidence(index));
                } else {
                    self.finish(index, Status::Expected);
                }
            }
            (awaiting, other) => {
                return Err(format!("fleet: {} answered {awaiting:?}", other.kind()));
            }
        }
        Ok(())
    }

    /// Records the end of session `index` and releases replays parked on it.
    fn finish(&mut self, index: usize, status: Status) {
        let now = Instant::now();
        let key = self.key(index);
        let slot = &mut self.slots[index];
        slot.status = Some(status);
        let spans = std::mem::take(&mut slot.spans);
        let record = SessionRecord {
            key,
            phase: slot.phase,
            input: slot.input,
            status,
            start: slot.start,
            end: now,
            evidence_frames: slot.evidence_frames,
            evidence_bytes: slot.evidence_bytes,
            attested_cycles: None,
        };
        let root = self.log.tracer.record("session", key, record.start, now);
        self.log.tracer.adopt(root, &spans);
        if record.phase == Phase::Saturation
            && status == Status::Expected
            && self.window_end.is_some_and(|end| now <= end)
        {
            self.log.window_good += 1;
        }
        self.log.record(record);
        self.in_flight -= 1;
        for replay in self.parked.remove(&index).unwrap_or_default() {
            self.send_replay(replay);
        }
    }

    /// Waits up to `timeout` for replies and handles every complete one.
    fn pump(&mut self, timeout: Duration) -> Result<(), String> {
        if self.dead
            || !sys::wait_readable(&self.stream, Some(timeout))
                .map_err(|e| format!("ppoll: {e}"))?
        {
            return Ok(());
        }
        let n = match self.stream.read(&mut self.read_buf) {
            Ok(0) | Err(_) => {
                self.dead = true;
                self.fail_outstanding(Status::Transport);
                return Ok(());
            }
            Ok(n) => n,
        };
        self.framer.bytes_in(&self.read_buf[..n], 0);
        while let Some(frame) =
            self.framer.next_frame().map_err(|e| format!("fleet: bad reply framing: {e}"))?
        {
            self.on_frame(frame)?;
        }
        if self.full && self.awaiting.is_empty() && !self.dead {
            self.reconnect()?;
        }
        Ok(())
    }

    /// Gives up every session still in flight.
    fn fail_outstanding(&mut self, status: Status) {
        let open: Vec<usize> = (self.slots.first..self.slots.len())
            .filter(|&i| self.slots[i].status.is_none())
            .collect();
        self.awaiting.clear();
        self.held.clear();
        self.parked.clear();
        for index in open {
            self.finish(index, status);
        }
    }

    /// Waits for every session in flight, up to [`DRAIN`].
    fn drain(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN;
        while self.in_flight > 0 && !self.dead {
            let now = Instant::now();
            if now >= deadline {
                self.fail_outstanding(Status::TimedOut);
                break;
            }
            self.pump(deadline - now)?;
        }
        Ok(())
    }

    fn open_loop(&mut self, schedule: &[Instant]) -> Result<(), String> {
        let mut next = 0;
        while next < schedule.len() && !self.dead {
            let now = Instant::now();
            while next < schedule.len() && schedule[next] <= now {
                let late = now.saturating_duration_since(schedule[next]);
                self.log.late_ns.push(late.as_nanos() as u64);
                let index = self.new_slot(Phase::Open, schedule[next]);
                self.issue(index);
                next += 1;
            }
            if next < schedule.len() {
                self.pump(schedule[next].saturating_duration_since(Instant::now()))?;
            }
        }
        self.drain()
    }

    fn saturate(&mut self, length: Duration) -> Result<(), String> {
        let started = Instant::now();
        let end = started + length;
        self.window_end = Some(end);
        while !self.dead {
            let now = Instant::now();
            if now >= end {
                break;
            }
            while self.in_flight < IN_FLIGHT && !self.dead {
                let index = self.new_slot(Phase::Saturation, Instant::now());
                self.issue(index);
            }
            self.pump(end.saturating_duration_since(Instant::now()))?;
        }
        self.log.window_seconds = started.elapsed().as_secs_f64();
        self.drain()
    }
}

/// Arrival times for one connection's share of the offered rate: exactly
/// `rate × length` arrivals placed uniformly at random — a Poisson process
/// conditioned on its count, so every seed offers the same number of
/// sessions and leaves the same number below the connection cap.
fn schedule(rng: &mut StdRng, start: Instant, length: Duration, rate: f64) -> Vec<Instant> {
    let count = (rate * length.as_secs_f64()).round() as usize;
    let mut offsets: Vec<f64> =
        (0..count).map(|_| workload::unit(rng) * length.as_secs_f64()).collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(|at| start + Duration::from_secs_f64(at)).collect()
}

/// What the connections of one pass share.
#[derive(Clone, Copy)]
struct PassSpec<'a> {
    pre: &'a Premeasured,
    mix: Mix,
    addr: SocketAddr,
    shape: Shape,
    seed: u64,
    epoch: Instant,
    traced: bool,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The span key of a generator thread's `n`th connection, apart from every
/// session key.
fn connection_key(conn_index: u64, n: u64) -> u64 {
    (conn_index << 40) | (1 << 39) | n
}

/// One connection's whole pass: connect, open loop, saturation.  Both
/// connections start each phase together (`barrier`), so one connection's
/// saturation never overlaps the other's open loop.
fn drive(spec: PassSpec<'_>, conn_index: u64, barrier: &Barrier) -> Result<PassLog, String> {
    let PassSpec { pre, mix, addr, shape, seed, epoch, traced } = spec;
    let mut log = PassLog::new(epoch, traced);
    let t = Instant::now();
    let connected = connect(addr);
    log.tracer.record("net.connect", connection_key(conn_index, 0), t, Instant::now());
    barrier.wait();
    let stream = match connected {
        Ok(stream) => stream,
        Err(e) => {
            barrier.wait();
            return Err(format!("connect: {e}"));
        }
    };
    let stream_seed = seed.wrapping_add(conn_index);
    let mut generator = Generator {
        pre,
        mix,
        addr,
        conn_index,
        stream,
        framer: Connection::new(&NetLimits::client(), 0),
        connections: 1,
        full: false,
        held: Vec::new(),
        rng: workload::stream(stream_seed, STREAM_SESSIONS),
        slots: Window { first: 0, slots: VecDeque::new() },
        honest_slots: VecDeque::new(),
        awaiting: VecDeque::new(),
        parked: HashMap::new(),
        in_flight: 0,
        window_end: None,
        dead: false,
        log,
        read_buf: vec![0u8; 64 * 1024],
    };
    let mut arrivals = workload::stream(stream_seed, STREAM_ARRIVALS);
    let start = Instant::now() + Duration::from_millis(1);
    let times = schedule(&mut arrivals, start, shape.open, OFFERED_RATE / CONNECTIONS as f64);
    // The process's CPU time over the open loop (both connections run it
    // between the same two barriers), sampled once.
    let cpu = (conn_index == 0).then(sys::cpu_time);
    let open = generator.open_loop(&times);
    barrier.wait();
    if let Some(cpu) = cpu {
        generator.log.phase_cpu = sys::cpu_time().saturating_sub(cpu);
    }
    open?;
    generator.saturate(shape.saturation)?;
    Ok(generator.log)
}

/// Runs one pass of a fleet workload against `addr`.
///
/// # Errors
///
/// Fails on a wrong verdict, an unexpected reply or a generator fault.
pub fn run(
    pre: &Premeasured,
    mix: Mix,
    addr: SocketAddr,
    shape: Shape,
    seed: u64,
    traced: bool,
) -> Result<PassLog, String> {
    let epoch = Instant::now();
    let spec = PassSpec { pre, mix, addr, shape, seed, epoch, traced };
    let barrier = Barrier::new(CONNECTIONS);
    let logs: Vec<Result<PassLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || drive(spec, conn, barrier))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut merged = PassLog::new(epoch, traced);
    for log in logs {
        merged.absorb(log?);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_cap_the_open_loop_below_the_connection_cap() {
        let shape = Shape::for_seconds(30.0);
        assert_eq!(shape.open, Duration::from_secs(20));
        assert_eq!(shape.saturation, Duration::from_secs(10));
        let per_connection = OFFERED_RATE / CONNECTIONS as f64 * MAX_OPEN_SECONDS;
        assert!(per_connection < lofat_net::DEFAULT_MAX_SESSIONS_PER_CONNECTION as f64 * 0.8);
        let short = Shape::for_seconds(1.0);
        assert!((short.open.as_secs_f64() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_seeded_and_at_the_offered_rate() {
        let start = Instant::now();
        let length = Duration::from_secs(2);
        let a = schedule(&mut workload::stream(7, STREAM_ARRIVALS), start, length, 1500.0);
        let b = schedule(&mut workload::stream(7, STREAM_ARRIVALS), start, length, 1500.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
