//! The ARCANE smart LLC: cache + tightly-coupled matrix coprocessor.
//!
//! This type ties every piece of the paper's Figure 1 together:
//!
//! * it is a **cache** — [`ArcaneLlc::host_access`] implements the
//!   fully-associative, write-back, approximate-LRU controller with the
//!   lock and hazard stalls of §III-A;
//! * it is a **coprocessor** — the [`Coprocessor`] implementation is the
//!   bridge of §III-B: it samples offloaded `xmnmc` instructions,
//!   decodes them in software (C-RT Kernel Decoder), places them on a
//!   VPU under the configured [`crate::sched::SchedulerPolicy`]
//!   (Kernel Scheduler; least-dirty by default) and runs them through
//!   the Matrix Allocator and the vector units.
//!
//! Co-simulation model: kernel *data* effects are applied eagerly in
//! host program order, while kernel *time* is laid out on an absolute
//! cycle axis (decode → allocation → compute → writeback). Host
//! accesses that would conflict (lock held, WAR on sources, RAW/WAW on
//! destinations, all lines busy) stall until the corresponding phase
//! completes — exactly the synchronisation the hardware enforces.

use crate::cache::{
    AddressTable, AtEntry, CacheTable, LockWindows, OperandKind, ResourceChannel, Victim,
};
use crate::config::ArcaneConfig;
use crate::kernels::{KernelError, KernelLib, ResolvedArgs};
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use crate::runtime::map::MatrixMap;
use crate::sched::SchedView;
use arcane_fabric::{Fabric, PortStats, HOST_PORT};
use arcane_isa::launch::{DescriptorBatch, LaunchMode, FUNC5_XMB};
use arcane_isa::xmnmc::{self, XmnmcOp};
use arcane_mem::{Access, AccessSize, BusError, Dma2d, ExtMem, Memory};
use arcane_rv32::{Coprocessor, XifResponse};
use arcane_sim::{CacheStats, ChannelUtil, LaunchStats, PhaseBreakdown, Sew};
use arcane_vpu::Vpu;
use std::collections::VecDeque;

/// Completed-kernel record: identity, placement and phase timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRecord {
    /// `func5` kernel id.
    pub id: u8,
    /// Kernel mnemonic.
    pub name: &'static str,
    /// Element width.
    pub width: Sew,
    /// VPU the scheduler chose.
    pub vpu: usize,
    /// Absolute cycle the eCPU began decoding.
    pub decode_start: u64,
    /// Absolute cycle the writeback finished.
    pub end: u64,
    /// Cycles per phase (Figure 3's decomposition).
    pub phases: PhaseBreakdown,
}

/// The ARCANE LLC subsystem.
#[derive(Debug)]
pub struct ArcaneLlc {
    cfg: ArcaneConfig,
    vpus: Vec<Vpu>,
    table: CacheTable,
    at: AddressTable,
    locks: LockWindows,
    map: MatrixMap,
    lib: KernelLib,
    ext: ExtMem,
    dma: Dma2d,
    /// Writeback-completion times of queued kernels (fixed-capacity
    /// kernel queue back-pressure).
    queue_done: VecDeque<u64>,
    ecpu_free_at: u64,
    vpu_free_at: Vec<u64>,
    /// The shared memory fabric between the controller complex and the
    /// VPU array (kernel DMA bursts, dispatch descriptors, host
    /// refills under the burst arbiters).
    fabric: Fabric,
    ecpu_chan: ResourceChannel,
    ecpu_stats: PortStats,
    /// `xmr` decode work folded into the next kernel's preamble phase.
    pending_preamble: u64,
    /// Descriptor launch-pipeline counters (all zero in legacy mode).
    launch_stats: LaunchStats,
    /// Kernels scheduled so far (the round-robin rotation cursor).
    sched_seq: u64,
    records: Vec<KernelRecord>,
    stats: CacheStats,
    last_error: Option<KernelError>,
}

impl ArcaneLlc {
    /// Builds the subsystem from a configuration.
    ///
    /// The shared path's payload bandwidth is owned by the fabric:
    /// `cfg.dma.bytes_per_cycle` is overridden with
    /// `cfg.fabric.bytes_per_cycle` so the DMA engine and the fabric
    /// banks always agree on the bus width.
    pub fn new(mut cfg: ArcaneConfig) -> Self {
        cfg.dma.bytes_per_cycle = cfg.fabric.bytes_per_cycle;
        ArcaneLlc {
            vpus: (0..cfg.n_vpus).map(|_| Vpu::new(cfg.vpu)).collect(),
            table: CacheTable::new(cfg.n_lines(), cfg.line_bytes()),
            at: AddressTable::new(cfg.at_capacity),
            locks: LockWindows::new(),
            map: MatrixMap::new(),
            lib: KernelLib::builtin(),
            ext: ExtMem::new(
                cfg.ext_base,
                cfg.ext_size,
                cfg.ext_first_word,
                cfg.ext_per_word,
            ),
            dma: Dma2d::new(cfg.dma),
            queue_done: VecDeque::new(),
            ecpu_free_at: 0,
            vpu_free_at: vec![0; cfg.n_vpus],
            fabric: Fabric::new(cfg.fabric, cfg.n_vpus),
            ecpu_chan: ResourceChannel::new(),
            ecpu_stats: PortStats::default(),
            pending_preamble: 0,
            launch_stats: LaunchStats::default(),
            sched_seq: 0,
            records: Vec::new(),
            stats: CacheStats::default(),
            last_error: None,
            cfg,
        }
    }

    /// The configuration this instance was built with.
    pub const fn config(&self) -> &ArcaneConfig {
        &self.cfg
    }

    /// Read access to the external memory behind the cache
    /// (workload seeding and result checking).
    pub fn ext(&self) -> &ExtMem {
        &self.ext
    }

    /// Write access to the external memory behind the cache.
    pub fn ext_mut(&mut self) -> &mut ExtMem {
        &mut self.ext
    }

    /// Registers (or replaces) a user kernel — the software-defined ISA
    /// extensibility of §IV: new `xmkN` opcodes without hardware changes.
    ///
    /// # Panics
    ///
    /// Panics if `id > 30`.
    pub fn register_kernel(&mut self, id: u8, kernel: Box<dyn crate::kernels::Kernel>) {
        self.lib.register(id, kernel);
    }

    /// Records of every kernel executed so far, in completion order.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Cache hit/miss/stall statistics for host accesses.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of `xmr` rebinds resolved by renaming.
    pub fn renames(&self) -> u64 {
        self.map.renames()
    }

    /// The kernel error behind the most recent rejected offload, if any.
    pub fn last_error(&self) -> Option<&KernelError> {
        self.last_error.as_ref()
    }

    /// The shared memory fabric (per-port traffic statistics, bank
    /// occupancy).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The eCPU booking calendar (busy cycles, horizon).
    pub fn ecpu_channel(&self) -> &ResourceChannel {
        &self.ecpu_chan
    }

    /// Descriptor launch-pipeline counters: batches decoded, descriptors
    /// replayed, decode cycles. All zero on the legacy launch path.
    pub const fn launch_stats(&self) -> &LaunchStats {
        &self.launch_stats
    }

    /// Per-channel utilisation over the run so far: the eCPU, then one
    /// row per fabric port (`host`, `vpu0`, …). Occupancy is measured
    /// against [`ArcaneLlc::completion_time`].
    pub fn channel_utilisation(&self) -> Vec<ChannelUtil> {
        let horizon = self
            .completion_time()
            .max(self.fabric.horizon())
            .max(self.ecpu_chan.horizon());
        let mut rows = vec![ChannelUtil {
            label: "ecpu".into(),
            busy_cycles: self.ecpu_chan.busy_cycles(),
            wait_cycles: self.ecpu_stats.wait_cycles,
            requests: self.ecpu_stats.requests,
            horizon,
        }];
        for (port, s) in self.fabric.port_stats().iter().enumerate() {
            rows.push(ChannelUtil {
                label: Fabric::port_label(port),
                busy_cycles: s.busy_cycles,
                wait_cycles: s.wait_cycles,
                requests: s.requests,
                horizon,
            });
        }
        rows
    }

    /// Absolute cycle at which all queued kernel work completes.
    pub fn completion_time(&self) -> u64 {
        self.vpu_free_at
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.ecpu_free_at)
    }

    fn line_data(&self, idx: usize) -> &[u8] {
        let vregs = self.cfg.vpu.vregs;
        self.vpus[idx / vregs].line(idx % vregs)
    }

    fn line_data_mut(&mut self, idx: usize) -> &mut [u8] {
        let vregs = self.cfg.vpu.vregs;
        self.vpus[idx / vregs].line_mut(idx % vregs)
    }

    /// One host CPU data access through the smart cache.
    ///
    /// Returns the data and the total cycles the host was occupied,
    /// including every stall (lock windows, hazard protection, busy
    /// lines, miss service).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] when the address is not in the
    /// cached external-memory region.
    pub fn host_access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        if !self.ext.contains(addr, size.bytes()) {
            return Err(BusError::OutOfRange { addr });
        }

        // A misaligned access crossing a line boundary becomes two
        // transactions, one per line (as the bus adapter would split it).
        let line_bytes = self.cfg.line_bytes();
        if ((addr as usize) & (line_bytes - 1)) + size.bytes() as usize > line_bytes {
            let mut data = [0u8; 4];
            let mut cycles = 0;
            let vb = value.to_le_bytes();
            for i in 0..size.bytes() {
                let a = self.host_access(
                    addr + i,
                    write,
                    vb[i as usize] as u32,
                    AccessSize::Byte,
                    now,
                )?;
                data[i as usize] = a.data as u8;
                cycles += a.cycles;
            }
            return Ok(Access::new(u32::from_le_bytes(data), cycles));
        }

        // Hazard and lock stalls first (controller arbitration).
        let mut t = now;
        loop {
            if let Some(e) = self.locks.stall_until(t) {
                t = e;
                continue;
            }
            if let Some(e) = self.at.stall_until(addr, size.bytes(), write, t) {
                t = e;
                continue;
            }
            break;
        }
        if t > now {
            self.stats.stalls.incr();
            self.stats.stall_cycles.add(t - now);
        }

        // Cache lookup; single-cycle hit (§III-A1).
        let mut service = 0u64;
        let (line, tag) = match self.table.access(addr) {
            Some(hit) => {
                self.stats.hits.incr();
                hit
            }
            None => {
                self.stats.misses.incr();
                let i = loop {
                    match self.table.victim(t) {
                        Victim::Line(i) => break i,
                        Victim::AllBusyUntil(b) => {
                            self.stats.stalls.incr();
                            self.stats.stall_cycles.add(b - t);
                            t = b;
                        }
                    }
                };
                // The miss service (writeback + fill bursts) goes over
                // the fabric's host port: a dedicated fixed-latency
                // slave path under the whole-phase arbiter, contending
                // with kernel bursts under the burst arbiters.
                let raw = self.refill(i, addr)?;
                let grant = self.fabric.request(HOST_PORT, addr, t, raw);
                service += grant.end - t;
                self.table.touch(i);
                (i, self.table.line(i).tag)
            }
        };
        let off = (addr - tag) as usize;
        let n = size.bytes() as usize;
        let data = if write {
            let bytes = value.to_le_bytes();
            self.line_data_mut(line)[off..off + n].copy_from_slice(&bytes[..n]);
            self.table.line_mut(line).dirty = true;
            0
        } else {
            let mut b = [0u8; 4];
            b[..n].copy_from_slice(&self.line_data(line)[off..off + n]);
            u32::from_le_bytes(b)
        };

        Ok(Access::new(data, (t - now) + service + 1))
    }

    /// Evicts line `i` if needed and refills it with the block holding
    /// `addr`. Returns the service cycles (writeback + fill bursts).
    fn refill(&mut self, i: usize, addr: u32) -> Result<u64, BusError> {
        let line_bytes = self.cfg.line_bytes();
        let mut cycles = 0;
        let old = *self.table.line(i);
        if old.valid && old.dirty {
            let data = self.line_data(i).to_vec();
            self.ext.write_bytes(old.tag, &data)?;
            cycles += self.ext.burst_cycles(line_bytes as u64);
            self.stats.writebacks.incr();
        }
        let tag = self.table.tag_of(addr);
        let mut buf = vec![0u8; line_bytes];
        self.ext.read_bytes(tag, &mut buf)?;
        self.line_data_mut(i).copy_from_slice(&buf);
        cycles += self.ext.burst_cycles(line_bytes as u64);
        let l = self.table.line_mut(i);
        l.tag = tag;
        l.valid = true;
        l.dirty = false;
        Ok(cycles)
    }

    /// Kernel Scheduler: snapshots per-VPU occupancy and delegates the
    /// placement decision to the configured [`crate::sched::SchedulerPolicy`]
    /// (§IV-B2; least-dirty by default, DESIGN.md §4.4 for the others).
    fn choose_vpu(&mut self) -> usize {
        let vregs = self.cfg.vpu.vregs;
        let (dirty, free): (Vec<usize>, Vec<usize>) = (0..self.cfg.n_vpus)
            .map(|v| {
                (
                    self.table.dirty_in_range(v * vregs, (v + 1) * vregs),
                    self.table.free_in_range(v * vregs, (v + 1) * vregs),
                )
            })
            .unzip();
        let view = SchedView {
            dirty_lines: &dirty,
            free_lines: &free,
            free_at: &self.vpu_free_at,
            seq: self.sched_seq,
        };
        self.sched_seq += 1;
        let vpu = self.cfg.scheduler.policy().choose(&view);
        assert!(vpu < self.cfg.n_vpus, "policy chose a VPU out of range");
        vpu
    }

    fn reject(&mut self, err: KernelError) -> XifResponse {
        self.last_error = Some(err);
        XifResponse::Reject
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_reserve(
        &mut self,
        width: Sew,
        md: arcane_isa::xmnmc::MatReg,
        addr: u32,
        stride: u16,
        cols: u16,
        rows: u16,
        now: u64,
    ) -> XifResponse {
        let crt = self.cfg.crt;
        self.map.bind(
            md,
            addr,
            rows as usize,
            cols as usize,
            (stride as usize).max(1),
            width,
        );
        let work = crt.irq_entry + crt.decode + crt.xmr_bind;
        let earliest = now + crt.bridge_latency;
        let (_, end) = self.ecpu_chan.reserve_fragmented(earliest, work, 16);
        self.ecpu_stats.requests += 1;
        self.ecpu_stats.busy_cycles += work;
        self.ecpu_stats.wait_cycles += (end - earliest).saturating_sub(work);
        self.ecpu_free_at = self.ecpu_free_at.max(end);
        self.pending_preamble += work;
        XifResponse::Accept {
            writeback: None,
            cycles: crt.bridge_latency,
        }
    }

    /// Kernel Decoder front half: O(1) library lookup first (unknown
    /// `func5` is the kill path), then operand resolution and shape
    /// validation. Shared verbatim by the legacy per-instruction path
    /// and the descriptor-batch replay loop.
    #[allow(clippy::too_many_arguments)]
    fn resolve_launch(
        &self,
        id: u8,
        width: Sew,
        alpha: i16,
        beta: i16,
        md: arcane_isa::xmnmc::MatReg,
        ms1: arcane_isa::xmnmc::MatReg,
        ms2: arcane_isa::xmnmc::MatReg,
        ms3: arcane_isa::xmnmc::MatReg,
    ) -> Result<(ResolvedArgs, Vec<MatView>, &'static str), KernelError> {
        let kernel = self.lib.get(id)?;
        let md_view = self
            .map
            .resolve(md)
            .ok_or(KernelError::UnboundMatrix { reg: md })?;
        let args = ResolvedArgs {
            width,
            alpha,
            beta,
            md: md_view,
            ms1: self.map.resolve(ms1),
            ms2: self.map.resolve(ms2),
            ms3: self.map.resolve(ms3),
        };
        let sources = kernel.validate(&args)?;
        for m in sources.iter().chain([&args.md]) {
            self.check_in_ext(m)?;
        }
        Ok((args, sources, kernel.name()))
    }

    /// Range check of one resolved operand: every row the kernel will
    /// load or store must lie in external memory. Computed in 64 bits,
    /// so a guest binding near the top of the address space cannot
    /// wrap around.
    fn check_in_ext(&self, m: &MatView) -> Result<(), KernelError> {
        let bytes = match m.rows {
            0 => 0,
            rows => (rows as u64 - 1) * u64::from(m.pitch_bytes()) + u64::from(m.row_bytes()),
        };
        self.check_range(m.addr, bytes)
    }

    /// `[addr, addr + bytes)` must lie in external memory (64-bit
    /// arithmetic, no wrap-around).
    fn check_range(&self, addr: u32, bytes: u64) -> Result<(), KernelError> {
        let base = u64::from(self.ext.base());
        let end = base + self.ext.len() as u64;
        if u64::from(addr) < base || u64::from(addr) + bytes > end {
            return Err(KernelError::OperandOutOfRange { addr, bytes });
        }
        Ok(())
    }

    /// Back half of a launch, after its preamble has been booked on the
    /// eCPU: schedule the kernel on a VPU, run it, and register its
    /// hazard windows. `local_issue` selects whether control traffic
    /// (vector issue, scalar writes, element reads) serialises on the
    /// shared eCPU (legacy) or stays on the VPU-side decoder
    /// (descriptor pipeline). Returns the kernel's writeback-completion
    /// cycle.
    #[allow(clippy::too_many_arguments)]
    fn execute_launch(
        &mut self,
        id: u8,
        name: &'static str,
        args: &ResolvedArgs,
        sources: &[MatView],
        decode_start: u64,
        decode_end: u64,
        preamble: u64,
        now: u64,
        local_issue: bool,
    ) -> Result<u64, KernelError> {
        // Scheduler: VPU choice and kernel start.
        let vpu = self.choose_vpu();
        let t_start = decode_end.max(self.vpu_free_at[vpu]);

        let mut ctx = KernelCtx {
            vpus: &mut self.vpus,
            vpu_index: vpu,
            vregs: self.cfg.vpu.vregs,
            table: &mut self.table,
            ext: &mut self.ext,
            dma: self.dma,
            crt: self.cfg.crt,
            locks: &mut self.locks,
            fabric: &mut self.fabric,
            port: Fabric::vpu_port(vpu),
            ecpu_chan: &mut self.ecpu_chan,
            ecpu_stats: &mut self.ecpu_stats,
            local_issue,
            t: t_start,
            phases: PhaseBreakdown {
                preamble,
                ..PhaseBreakdown::default()
            },
            last_alloc_end: t_start,
            writebacks: 0,
        };
        let kernel = self.lib.get(id).expect("resolved before execution");
        kernel.run(args, &mut ctx)?;
        let end = ctx.t;
        let phases = ctx.phases;
        let last_alloc_end = ctx.last_alloc_end;
        let wbs = ctx.writebacks;
        self.stats.writebacks.add(wbs);

        // Mark the VPU's lines busy-computing until the kernel retires.
        let vregs = self.cfg.vpu.vregs;
        for i in vpu * vregs..(vpu + 1) * vregs {
            let l = self.table.line_mut(i);
            l.busy_until = l.busy_until.max(end);
        }

        // Address Table: WAR protection on sources until the last
        // allocation, RAW/WAW protection on the destination until
        // writeback completes.
        for s in sources {
            let entry = AtEntry {
                start: s.addr,
                end: s.end_addr(),
                kind: OperandKind::Source,
                protect_until: last_alloc_end,
                matrix: s.phys_id,
            };
            self.at.register(entry, now)?;
        }
        let dest_entry = AtEntry {
            start: args.md.addr,
            end: args.md.end_addr(),
            kind: OperandKind::Destination,
            protect_until: end,
            matrix: args.md.phys_id,
        };
        self.at.register(dest_entry, now)?;

        self.vpu_free_at[vpu] = end;
        self.queue_done.push_back(end);
        self.locks.prune(now.saturating_sub(1));
        self.records.push(KernelRecord {
            id,
            name,
            width: args.width,
            vpu,
            decode_start,
            end,
            phases,
        });
        Ok(end)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_kernel(
        &mut self,
        id: u8,
        width: Sew,
        alpha: i16,
        beta: i16,
        md: arcane_isa::xmnmc::MatReg,
        ms1: arcane_isa::xmnmc::MatReg,
        ms2: arcane_isa::xmnmc::MatReg,
        ms3: arcane_isa::xmnmc::MatReg,
        now: u64,
    ) -> XifResponse {
        let crt = self.cfg.crt;

        // Kernel-queue back-pressure: the host handshake stalls until a
        // slot frees (fixed-capacity, statically allocated queue).
        while let Some(&front) = self.queue_done.front() {
            if front <= now {
                self.queue_done.pop_front();
            } else {
                break;
            }
        }
        let mut host_cycles = crt.bridge_latency;
        let mut t_now = now;
        if self.queue_done.len() >= self.cfg.kernel_queue_capacity {
            let free_at = self.queue_done[self.queue_done.len() - self.cfg.kernel_queue_capacity];
            host_cycles += free_at.saturating_sub(now);
            t_now = free_at;
        }

        let (args, sources, name) =
            match self.resolve_launch(id, width, alpha, beta, md, ms1, ms2, ms3) {
                Ok(v) => v,
                Err(e) => return self.reject(e),
            };

        // Preamble: IRQ entry, decode, scheduling, plus any pending xmr
        // work, booked on the (single) eCPU.
        let preamble = crt.irq_entry + crt.decode + crt.schedule + self.pending_preamble;
        self.pending_preamble = 0;
        let earliest = t_now + crt.bridge_latency;
        let (decode_start, decode_end) = self.ecpu_chan.reserve_fragmented(earliest, preamble, 16);
        self.ecpu_stats.requests += 1;
        self.ecpu_stats.busy_cycles += preamble;
        self.ecpu_stats.wait_cycles += (decode_end - earliest).saturating_sub(preamble);
        self.ecpu_free_at = self.ecpu_free_at.max(decode_end);

        match self.execute_launch(
            id,
            name,
            &args,
            &sources,
            decode_start,
            decode_end,
            preamble,
            now,
            false,
        ) {
            Ok(_) => XifResponse::Accept {
                writeback: None,
                cycles: host_cycles,
            },
            Err(e) => self.reject(e),
        }
    }

    /// The `xmb` handler: fetch one [`DescriptorBatch`] from external
    /// memory over the fabric, decode it **once** on the eCPU, and
    /// replay its descriptors (install bindings, resolve, schedule,
    /// run). Each replayed kernel pays only the amortised
    /// `desc_decode`/`desc_bind` tariff instead of the full legacy
    /// preamble, and the per-VPU decoders keep vector issue and
    /// scalar/element traffic off the shared eCPU calendar.
    ///
    /// The host handshake never blocks on the queue here: the decoder's
    /// replay cursor absorbs kernel-queue back-pressure instead.
    fn handle_batch(&mut self, addr: u32, words: u32, _token: u32, now: u64) -> XifResponse {
        let crt = self.cfg.crt;

        // Functional fetch of the encoded batch. The guest-supplied
        // length is range-checked before anything is allocated.
        if let Err(e) = self.check_range(addr, u64::from(words) * 4) {
            return self.reject(e);
        }
        let mut bytes = vec![0u8; words as usize * 4];
        self.ext
            .read_bytes(addr, &mut bytes)
            .expect("range checked above");
        let stream: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let batch = match DescriptorBatch::decode(&stream) {
            Ok(b) => b,
            Err(e) => return self.reject(KernelError::Launch(e)),
        };

        // The batch travels to the decoder as bursts on the fabric's
        // issue-descriptor path (weaving into DMA gaps under the burst
        // arbiters).
        let earliest = now + crt.bridge_latency;
        let grant = self
            .fabric
            .issue_batch(HOST_PORT, addr, earliest, bytes.len() as u64);
        self.launch_stats.batches += 1;
        self.launch_stats.batch_bytes += bytes.len() as u64;

        let mut cursor = grant.end;
        let mut entry = crt.batch_entry;
        for desc in &batch.descriptors {
            // Kernel-queue back-pressure, absorbed at the decoder: the
            // replay cursor waits for a slot instead of the host.
            while let Some(&front) = self.queue_done.front() {
                if front <= cursor {
                    self.queue_done.pop_front();
                } else {
                    break;
                }
            }
            if self.queue_done.len() >= self.cfg.kernel_queue_capacity {
                let free_at =
                    self.queue_done[self.queue_done.len() - self.cfg.kernel_queue_capacity];
                cursor = cursor.max(free_at);
            }

            // Install the descriptor's fresh bindings (renaming applies
            // exactly as it would for the equivalent xmr train).
            for b in &desc.bindings {
                self.map.bind(
                    b.reg,
                    b.addr,
                    b.rows as usize,
                    b.cols as usize,
                    (b.stride as usize).max(1),
                    desc.width,
                );
            }
            self.launch_stats.bindings += desc.bindings.len() as u64;

            let (args, sources, name) = match self.resolve_launch(
                desc.kernel,
                desc.width,
                desc.alpha,
                desc.beta,
                desc.md,
                desc.ms1,
                desc.ms2,
                desc.ms3,
            ) {
                Ok(v) => v,
                Err(e) => return self.reject(e),
            };

            // Amortised preamble: batch entry once, then the replay
            // tariff per descriptor.
            let preamble = entry + crt.desc_decode + crt.desc_bind * desc.bindings.len() as u64;
            entry = 0;
            let (decode_start, decode_end) =
                self.ecpu_chan.reserve_fragmented(cursor, preamble, 16);
            self.ecpu_stats.requests += 1;
            self.ecpu_stats.busy_cycles += preamble;
            self.ecpu_stats.wait_cycles += (decode_end - cursor).saturating_sub(preamble);
            self.ecpu_free_at = self.ecpu_free_at.max(decode_end);
            self.launch_stats.descriptors += 1;
            self.launch_stats.decode_cycles += preamble;

            // Hazard windows age against the decoder's replay cursor
            // (not the host's launch time): the queue back-pressure
            // above bounds the AT's live entries exactly as the host
            // handshake does on the legacy path.
            if let Err(e) = self.execute_launch(
                desc.kernel,
                name,
                &args,
                &sources,
                decode_start,
                decode_end,
                preamble,
                cursor,
                true,
            ) {
                return self.reject(e);
            }
            cursor = decode_end;
        }

        XifResponse::Accept {
            writeback: None,
            cycles: crt.bridge_latency,
        }
    }

    /// Encodes and offloads one `xmnmc` instruction from its fields and
    /// pre-packed operand-register values — the convenience entry
    /// examples, tests and benches use to drive the LLC without
    /// assembling a host program ([`xmnmc::pack_xmr`] /
    /// [`xmnmc::pack_kernel`] produce `vals`).
    pub fn offload_xmnmc(
        &mut self,
        func5: u8,
        width: Sew,
        vals: (u32, u32, u32),
        now: u64,
    ) -> XifResponse {
        use arcane_isa::reg::{A0, A1, A2};
        let raw = xmnmc::encode_raw(&xmnmc::XInstr {
            func5,
            width,
            rs1: A0,
            rs2: A1,
            rs3: A2,
        });
        self.offload(raw, vals.0, vals.1, vals.2, now)
    }
}

impl Coprocessor for ArcaneLlc {
    fn offload(&mut self, raw: u32, rs1: u32, rs2: u32, rs3: u32, now: u64) -> XifResponse {
        let x = match xmnmc::decode_raw(raw) {
            Ok(x) => x,
            Err(_) => return XifResponse::Reject,
        };
        // Under the descriptor launch pipeline, func5 = 30 is the xmb
        // launch-batch instruction; its register values are a plain
        // (addr, words, token) triple, not packed kernel operands. In
        // legacy mode the id stays on the ordinary kernel path (and is
        // rejected as unknown, exactly as before).
        if x.func5 == FUNC5_XMB && self.cfg.launch == LaunchMode::Descriptor {
            return self.handle_batch(rs1, rs2, rs3, now);
        }
        let op = match XmnmcOp::decode(&x, rs1, rs2, rs3) {
            Ok(op) => op,
            Err(_) => return XifResponse::Reject,
        };
        match op {
            XmnmcOp::MatReserve {
                width,
                md,
                addr,
                stride,
                cols,
                rows,
            } => self.handle_reserve(width, md, addr, stride, cols, rows, now),
            XmnmcOp::Kernel {
                id,
                width,
                alpha,
                beta,
                md,
                ms1,
                ms2,
                ms3,
            } => self.handle_kernel(id, width, alpha, beta, md, ms1, ms2, ms3, now),
        }
    }
}
