//! `net-durable` and `net-pipelined`: TPC-B transactions over loopback
//! from four connections, each transaction one pipelined batch.

use crate::bank::{self, Bank, Gate, TABLES, TABLE_ROWS};
use crate::inproc::delete_all;
use crate::spec::{Kind, WorkloadSpec, FRAMES_PER_NET_TXN};
use crate::trace::{Probe, Untraced, Verb};
use crate::util::{Scratch, Stopwatch};
use crate::workload::{Counters, SliceTime, Workload};
use dali_common::{RecId, Result};
use dali_engine::DaliEngine;
use dali_net::{DaliClient, DaliServer, MetricsReport, Request, Response};
use dali_workload::records::{encode_account, encode_branch, encode_history, encode_teller};
use dali_workload::{partition, worker_seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::time::Instant;

/// Load connections: twice the two vCPUs of the host the ledger was
/// sized on, so that neither vCPU goes idle while a caller waits for its
/// reply. With one connection per vCPU the run kept flipping between a
/// mode where wake-ups find a running vCPU and one where they find a
/// halted one, and run-to-run spread was twice as wide (13 % against 7 %
/// on `net-durable`, 11 % against 7 % on `net-pipelined`).
const CONNECTIONS: usize = 4;

const ENCODE: [fn(u64, i64) -> Vec<u8>; TABLES] = [encode_account, encode_teller, encode_branch];

/// One connection and the generator behind it. It owns a contiguous
/// share of every table, so the connections never wait for each other's
/// locks, and keeps the shadow of that share: updates need no prior
/// round trip and every `Read` reply is checked.
struct Client {
    conn: DaliClient,
    bank: Bank,
    rows: [Range<usize>; TABLES],
    rng: StdRng,
    inserted: Vec<RecId>,
    next_seq: u64,
    gate: Gate,
    latencies: Vec<u64>,
}

impl Client {
    /// Append one transaction's nine frames to `reqs` and the images its
    /// three reads must return to `reads`, advancing the shadow.
    fn build_txn(&mut self, reqs: &mut Vec<Request>, reads: &mut Vec<Vec<u8>>) {
        let rows: [usize; TABLES] =
            std::array::from_fn(|t| self.rng.gen_range(self.rows[t].clone()));
        let delta = self.rng.gen_range(-999_999i64..=999_999);
        reqs.push(Request::Begin);
        for table in 0..TABLES {
            let rec = self.bank.rec(table, rows[table]);
            let balance = &mut self.bank.shadow[table][rows[table]];
            reads.push(ENCODE[table](rows[table] as u64, *balance));
            *balance += delta;
            reqs.push(Request::Read { rec });
            reqs.push(Request::Update {
                rec,
                data: ENCODE[table](rows[table] as u64, *balance),
            });
        }
        reqs.push(Request::Insert {
            table: self.bank.history,
            data: encode_history(
                self.next_seq,
                rows[0] as u64,
                rows[1] as u64,
                rows[2] as u64,
                delta,
            ),
        });
        self.next_seq += 1;
        reqs.push(Request::Commit);
    }

    /// Check one transaction's nine replies.
    fn check_txn(&mut self, resps: &[Response], reads: &[Vec<u8>]) {
        self.gate.attempted += 1;
        let mut ok = matches!(resps[0], Response::Began { .. });
        for table in 0..TABLES {
            ok &= matches!(&resps[1 + 2 * table], Response::Data(d) if *d == reads[table]);
            ok &= resps[2 + 2 * table] == Response::Ok;
        }
        match resps[7] {
            Response::Inserted { rec } => self.inserted.push(rec),
            _ => ok = false,
        }
        ok &= resps[8] == Response::Ok;
        if !ok {
            self.gate.fail(|| {
                let bad = resps.iter().find(|r| matches!(r, Response::Err(_)));
                format!(
                    "a transaction's replies disagree with the shadow; first error reply: {bad:?}"
                )
            });
        }
    }

    /// Run `txns` transactions, `per_batch` to a round trip. The latency
    /// sample of a batch is its round trip: every transaction in it was
    /// begun when the batch left and acknowledged when it was answered.
    fn run<P: Probe>(&mut self, txns: usize, per_batch: usize, p: &mut P) -> Result<()> {
        let mut reqs = Vec::with_capacity(per_batch * FRAMES_PER_NET_TXN);
        let mut reads = Vec::with_capacity(per_batch * TABLES);
        let mut done = 0;
        while done < txns {
            let n = per_batch.min(txns - done);
            reqs.clear();
            reads.clear();
            for _ in 0..n {
                self.build_txn(&mut reqs, &mut reads);
            }
            let start = Instant::now();
            p.txn_open();
            let resps = p.span(Verb::Batch, || self.conn.pipeline(&reqs))?;
            p.txn_close();
            self.latencies.push(start.elapsed().as_nanos() as u64);
            for (resps, reads) in resps.chunks(FRAMES_PER_NET_TXN).zip(reads.chunks(TABLES)) {
                self.check_txn(resps, reads);
            }
            done += n;
        }
        Ok(())
    }
}

pub struct Net {
    spec: &'static WorkloadSpec,
    txns_per_batch: usize,
    clients: Vec<Client>,
    admin: DaliClient,
    server: DaliServer,
    engine: DaliEngine,
    _scratch: Scratch,
}

impl Workload for Net {
    const LANES: usize = CONNECTIONS;

    fn setup(spec: &'static WorkloadSpec, seed: u64) -> Result<Net> {
        let Kind::Net { txns_per_batch } = spec.kind else {
            unreachable!("not a networked workload")
        };
        let scratch = Scratch::new(spec.name);
        let (engine, bank) = bank::create(spec, scratch.path(), spec.slice_ops + 1024)?;
        let server = DaliServer::start(engine.clone(), "127.0.0.1:0")?;
        let clients = (0..CONNECTIONS)
            .map(|k| {
                Ok(Client {
                    conn: DaliClient::connect(server.addr())?,
                    bank: bank.clone(),
                    rows: TABLE_ROWS.map(|n| partition(n, CONNECTIONS, k)),
                    rng: StdRng::seed_from_u64(worker_seed(seed, k)),
                    inserted: Vec::new(),
                    next_seq: (k as u64) << 40,
                    gate: Gate::default(),
                    latencies: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let admin = DaliClient::connect(server.addr())?;
        let mut w = Net {
            spec,
            txns_per_batch,
            clients,
            admin,
            server,
            engine,
            _scratch: scratch,
        };
        w.slice(&mut [Untraced; CONNECTIONS])?;
        w.tidy(&mut [Untraced; CONNECTIONS])?;
        w.take_latencies();
        Ok(w)
    }

    fn slice<P: Probe + Send>(&mut self, lanes: &mut [P]) -> Result<SliceTime> {
        let txns = self.spec.slice_ops / CONNECTIONS;
        let per_batch = self.txns_per_batch;
        let watch = Stopwatch::start();
        std::thread::scope(|s| {
            let running: Vec<_> = self
                .clients
                .iter_mut()
                .zip(lanes.iter_mut())
                .map(|(client, lane)| s.spawn(move || client.run(txns, per_batch, lane)))
                .collect();
            running
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Result<Vec<()>>>()
        })?;
        let (wall_s, cpu_s) = watch.stop();
        Ok(SliceTime {
            ops: (txns * CONNECTIONS) as u64,
            wall_s,
            cpu_s,
        })
    }

    /// Empties the history table through the engine handle rather than
    /// the wire, so the server's counters describe timed traffic only.
    fn tidy<P: Probe + Send>(&mut self, _lanes: &mut [P]) -> Result<()> {
        for client in &mut self.clients {
            delete_all(
                &self.engine,
                &std::mem::take(&mut client.inserted),
                &mut Untraced,
            )?;
        }
        Ok(())
    }

    fn take_latencies(&mut self) -> Vec<u64> {
        self.clients
            .iter_mut()
            .flat_map(|c| std::mem::take(&mut c.latencies))
            .collect()
    }

    fn counters(&mut self) -> Result<Counters> {
        let mut counters = Counters::of_engine(&self.engine)?;
        counters.server = Some(self.admin.stats()?);
        Ok(counters)
    }

    fn server_metrics(&mut self) -> Result<Option<MetricsReport>> {
        Ok(Some(self.admin.metrics()?))
    }

    fn spans_per_slice(&self) -> usize {
        // A transaction span and a batch span per round trip.
        2 * (self.spec.slice_ops / CONNECTIONS).div_ceil(self.txns_per_batch) + 16
    }

    fn engine(&self) -> &DaliEngine {
        &self.engine
    }

    fn finish(self) -> Result<Gate> {
        let mut gate = Gate::default();
        let mut merged = self.clients[0].bank.clone();
        for client in self.clients {
            for table in 0..TABLES {
                let rows = client.rows[table].clone();
                merged.shadow[table][rows.clone()]
                    .copy_from_slice(&client.bank.shadow[table][rows]);
            }
            gate.absorb(client.gate);
        }
        drop(self.admin);
        self.server.shutdown();
        bank::verify(&self.engine, &merged, true, &mut gate)?;
        Ok(gate)
    }
}
