//! The kernel UDP receive path, as a sequence of costed steps.
//!
//! This is the software half of the paper's Figure 1 (and the left,
//! "normal task scheduling" side of Figure 5): everything between the
//! NIC's interrupt (step 4) and the application's `recvmsg` returning
//! (steps 5–10). Each segment is attributed to a paper step so the
//! `F1` experiment can print the breakdown table.

use std::collections::VecDeque;

use lauberhorn_sim::{SimDuration, SimTime};

use crate::cost::CostModel;

/// The twelve steps of §2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// 1: read the packet contents.
    S1ReadPacket,
    /// 2: protocol processing (checksums etc.).
    S2ProtocolOffload,
    /// 3: demultiplex to an in-memory queue.
    S3Demultiplex,
    /// 4: interrupt a core.
    S4Interrupt,
    /// 5: general protocol processing (IP/UDP in software).
    S5KernelProtocol,
    /// 6: identify the destination process.
    S6IdentifyProcess,
    /// 7: find a core to run it.
    S7FindCore,
    /// 8: schedule the process.
    S8Schedule,
    /// 9: context switch.
    S9ContextSwitch,
    /// 10: unmarshal arguments and function name.
    S10Unmarshal,
    /// 11: find the function address.
    S11FindFunction,
    /// 12: jump to it.
    S12Jump,
}

/// Who executes a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// NIC hardware.
    Nic,
    /// Kernel software.
    Kernel,
    /// User-space software.
    User,
}

/// One costed segment of a receive path.
#[derive(Debug, Clone, Copy)]
pub struct StepCost {
    /// Which of the paper's steps this segment belongs to.
    pub step: Step,
    /// Who runs it.
    pub executor: Executor,
    /// CPU cycles consumed (0 for NIC-hardware steps).
    pub cycles: u64,
}

/// The kernel receive path for one UDP packet of `payload` bytes,
/// from hard IRQ to the woken receiver having its data and jumping to
/// the handler. `fresh_wakeup` selects whether the receiver was blocked
/// (the common dynamic-workload case: wakeup + context switch) or
/// already running and about to call `recvmsg` again.
pub fn kernel_receive_path(m: &CostModel, payload: usize, fresh_wakeup: bool) -> Vec<StepCost> {
    let mut steps = vec![
        StepCost {
            step: Step::S4Interrupt,
            executor: Executor::Kernel,
            cycles: m.irq_entry + m.softirq_dispatch + m.irq_exit,
        },
        StepCost {
            step: Step::S5KernelProtocol,
            executor: Executor::Kernel,
            cycles: m.netstack_per_pkt + m.skb_management,
        },
        StepCost {
            step: Step::S6IdentifyProcess,
            executor: Executor::Kernel,
            cycles: m.socket_lookup,
        },
    ];
    if fresh_wakeup {
        steps.push(StepCost {
            step: Step::S7FindCore,
            executor: Executor::Kernel,
            cycles: m.sched_pick,
        });
        steps.push(StepCost {
            step: Step::S8Schedule,
            executor: Executor::Kernel,
            cycles: m.wakeup,
        });
        steps.push(StepCost {
            step: Step::S9ContextSwitch,
            executor: Executor::Kernel,
            cycles: m.full_context_switch(),
        });
    }
    // recvmsg: syscall + copyout, then software unmarshal and dispatch.
    steps.push(StepCost {
        step: Step::S10Unmarshal,
        executor: Executor::User,
        cycles: m.syscall + m.copy(payload) + m.unmarshal(payload),
    });
    steps.push(StepCost {
        step: Step::S11FindFunction,
        executor: Executor::User,
        cycles: 60, // Hash-table lookup of the method.
    });
    steps.push(StepCost {
        step: Step::S12Jump,
        executor: Executor::User,
        cycles: 5,
    });
    steps
}

/// The kernel-bypass receive path (IX/Demikernel style): the packet is
/// already in a user-mapped queue; a spinning core finds it.
pub fn bypass_receive_path(m: &CostModel, payload: usize) -> Vec<StepCost> {
    vec![
        StepCost {
            step: Step::S4Interrupt,
            executor: Executor::User,
            // No interrupt: one poll iteration discovers the packet.
            cycles: m.poll_iteration,
        },
        StepCost {
            step: Step::S5KernelProtocol,
            executor: Executor::User,
            // Minimal user-space UDP processing.
            cycles: 250,
        },
        StepCost {
            step: Step::S6IdentifyProcess,
            executor: Executor::User,
            // Queue is statically bound to this process: trivial.
            cycles: 30,
        },
        StepCost {
            step: Step::S10Unmarshal,
            executor: Executor::User,
            cycles: m.unmarshal(payload),
        },
        StepCost {
            step: Step::S11FindFunction,
            executor: Executor::User,
            cycles: 60,
        },
        StepCost {
            step: Step::S12Jump,
            executor: Executor::User,
            cycles: 5,
        },
    ]
}

/// The Lauberhorn fast path: the NIC did steps 1–3, 5–8, 10 and 11 in
/// hardware; software consumes the dispatch form and jumps (§4: "just
/// the arguments and virtual address of the first instruction").
pub fn lauberhorn_receive_path(m: &CostModel) -> Vec<StepCost> {
    vec![
        StepCost {
            step: Step::S10Unmarshal,
            executor: Executor::User,
            cycles: m.dispatch_form_consume,
        },
        StepCost {
            step: Step::S12Jump,
            executor: Executor::User,
            cycles: 5,
        },
    ]
}

/// Sums the CPU cycles of a path (NIC steps cost zero CPU).
pub fn total_cycles(steps: &[StepCost]) -> u64 {
    steps.iter().map(|s| s.cycles).sum()
}

/// A bounded per-socket receive backlog — the kernel stack's overload
/// analogue of the NIC's bounded endpoint queues (think of the SYN
/// backlog cap on a listen socket, applied to the datagram receive
/// queue). Each entry remembers its enqueue time so dequeue can shed
/// requests that have already overstayed a latency budget instead of
/// wasting a wakeup on them.
///
/// The backlog never panics at capacity: `push` hands the item back,
/// and the caller decides how to account the shed.
#[derive(Debug, Clone)]
pub struct SocketBacklog<T> {
    cap: usize,
    deadline: Option<SimDuration>,
    q: VecDeque<(SimTime, T)>,
    /// Items refused at capacity.
    pub rejected: u64,
    /// Items shed at dequeue because they were past the deadline.
    pub expired: u64,
}

impl<T> SocketBacklog<T> {
    /// A drop-tail backlog of at most `cap` entries.
    pub fn bounded(cap: usize) -> Self {
        SocketBacklog {
            cap: cap.max(1),
            deadline: None,
            q: VecDeque::new(),
            rejected: 0,
            expired: 0,
        }
    }

    /// An effectively unbounded backlog (the pre-overload-control
    /// kernel behavior, kept for unprotected comparison runs).
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Adds deadline-aware shedding with the given latency budget.
    pub fn with_deadline(mut self, budget: SimDuration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the backlog is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Enqueues `item` at `now`, or hands it back when the backlog is
    /// full (drop-tail; `rejected` is incremented).
    pub fn push(&mut self, now: SimTime, item: T) -> Result<(), T> {
        if self.q.len() >= self.cap {
            self.rejected += 1;
            return Err(item);
        }
        self.q.push_back((now, item));
        Ok(())
    }

    /// Removes and returns the head entry if it has already exceeded
    /// the deadline budget at `now` (`expired` is incremented). Call
    /// in a loop before `pop` so every stale entry can be accounted by
    /// the caller.
    pub fn pop_stale(&mut self, now: SimTime) -> Option<T> {
        let budget = self.deadline?;
        let (enqueued, _) = self.q.front()?;
        if now.since(*enqueued) > budget {
            self.expired += 1;
            return self.q.pop_front().map(|(_, item)| item);
        }
        None
    }

    /// Pops the head entry, returning it with its enqueue time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.q.pop_front()
    }

    /// Removes and returns the most recently enqueued entry (used to
    /// undo a push when delivery fails after enqueueing).
    pub fn pop_newest(&mut self) -> Option<T> {
        self.q.pop_back().map(|(_, item)| item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_path_is_heaviest() {
        let m = CostModel::linux_server();
        let k = total_cycles(&kernel_receive_path(&m, 64, true));
        let b = total_cycles(&bypass_receive_path(&m, 64));
        let l = total_cycles(&lauberhorn_receive_path(&m));
        assert!(k > b, "kernel {k} must exceed bypass {b}");
        assert!(b > l, "bypass {b} must exceed lauberhorn {l}");
        // The paper's claim: essentially zero cycles. Under 100.
        assert!(l < 100, "lauberhorn path was {l} cycles");
    }

    #[test]
    fn fresh_wakeup_adds_schedule_and_switch() {
        let m = CostModel::linux_server();
        let cold = total_cycles(&kernel_receive_path(&m, 64, true));
        let warm = total_cycles(&kernel_receive_path(&m, 64, false));
        assert_eq!(
            cold - warm,
            m.sched_pick + m.wakeup + m.full_context_switch()
        );
    }

    #[test]
    fn payload_size_scales_kernel_and_bypass_only() {
        let m = CostModel::linux_server();
        let k64 = total_cycles(&kernel_receive_path(&m, 64, false));
        let k4k = total_cycles(&kernel_receive_path(&m, 4096, false));
        assert!(k4k > k64);
        let l = total_cycles(&lauberhorn_receive_path(&m));
        // Lauberhorn's software cost is payload-independent (the NIC
        // unmarshals); nothing to vary.
        assert_eq!(l, total_cycles(&lauberhorn_receive_path(&m)));
    }

    #[test]
    fn steps_cover_the_papers_numbering() {
        let m = CostModel::linux_server();
        let steps = kernel_receive_path(&m, 64, true);
        let have: Vec<Step> = steps.iter().map(|s| s.step).collect();
        for s in [
            Step::S4Interrupt,
            Step::S5KernelProtocol,
            Step::S6IdentifyProcess,
            Step::S7FindCore,
            Step::S8Schedule,
            Step::S9ContextSwitch,
            Step::S10Unmarshal,
            Step::S11FindFunction,
            Step::S12Jump,
        ] {
            assert!(have.contains(&s), "missing {s:?}");
        }
    }

    #[test]
    fn backlog_rejects_at_capacity_without_panicking() {
        let mut b: SocketBacklog<u64> = SocketBacklog::bounded(2);
        let t = SimTime::from_us(1);
        assert!(b.push(t, 1).is_ok());
        assert!(b.push(t, 2).is_ok());
        assert_eq!(b.push(t, 3), Err(3));
        assert_eq!(b.push(t, 4), Err(4));
        assert_eq!(b.rejected, 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop().map(|(_, x)| x), Some(1));
        assert!(b.push(t, 5).is_ok());
    }

    #[test]
    fn backlog_sheds_stale_heads_on_dequeue() {
        let mut b: SocketBacklog<u64> =
            SocketBacklog::bounded(8).with_deadline(SimDuration::from_us(10));
        let t0 = SimTime::from_us(1);
        b.push(t0, 1).ok();
        b.push(t0 + SimDuration::from_us(20), 2).ok();
        let late = t0 + SimDuration::from_us(25);
        // Entry 1 has waited 24us > 10us: shed. Entry 2 is fresh.
        assert_eq!(b.pop_stale(late), Some(1));
        assert_eq!(b.pop_stale(late), None);
        assert_eq!(b.expired, 1);
        assert_eq!(b.pop().map(|(_, x)| x), Some(2));
        // No deadline configured: nothing is ever stale.
        let mut plain: SocketBacklog<u64> = SocketBacklog::bounded(8);
        plain.push(t0, 1).ok();
        assert_eq!(plain.pop_stale(SimTime::from_ms(999)), None);
    }

    #[test]
    fn executors_match_the_architecture() {
        let m = CostModel::linux_server();
        assert!(kernel_receive_path(&m, 64, true)
            .iter()
            .any(|s| s.executor == Executor::Kernel));
        assert!(bypass_receive_path(&m, 64)
            .iter()
            .all(|s| s.executor == Executor::User));
        assert!(lauberhorn_receive_path(&m)
            .iter()
            .all(|s| s.executor == Executor::User));
    }
}
