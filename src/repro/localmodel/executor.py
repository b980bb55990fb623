"""Bulk-synchronous batch execution: whole-round kernels over the CSR index.

The LOCAL model is bulk-synchronous: a round is "everyone computes, then
everyone exchanges".  :class:`~repro.localmodel.network.SyncNetwork`
realizes a round as N per-node :meth:`NodeProgram.step` calls, each with
its own context object, inbox dict, and outbox validation -- faithful,
observable, and (at n >= 10^4) dominated by Python dispatch rather than
by the algorithm's own payload work.

:class:`BatchExecutor` removes that dispatch for the homogeneous program
families the library actually runs at scale.  A program class may declare
a :class:`BatchKernel` (class attribute
:attr:`~repro.localmodel.network.NodeProgram.batch_kernel`): a compiled
form of its ``step`` that advances *the whole network* one round at a
time as flat loops over the :class:`~repro.graphs.index.GraphIndex`
(dense int ids, CSR adjacency) instead of per-node calls.  Programs
without a kernel fall back to the per-node scheduler transparently.

Equivalence contract (pinned by ``tests/localmodel/test_executor.py``):

* **outputs** -- byte-identical per-node outputs, in the same
  vertex-insertion order as :meth:`SyncNetwork.outputs`;
* **round counts and stats** -- the kernel reports per-round
  ``(sent, delivered)`` pairs folded through the same
  :meth:`RunStats.record_round`, so ``rounds``, ``messages_sent``,
  ``messages_delivered`` and ``max_messages_per_round`` all match the
  per-node path exactly;
* **matrix-invariant** -- the per-node side of the guarantee may be
  sealed or not, and stepped by the dense-stepping test oracle: both
  are behavior-preserving for conforming programs (the per-node
  equivalence suites assert that).

What sends a run to the per-node path (and why):

* a **non-empty** :class:`~repro.localmodel.faults.FaultPlan` -- fault
  decisions are per-(round, sender, receiver) and interleave with
  delivery; that is exactly the per-message machinery the kernel
  compiles away.  An *empty* plan is inert by the fault layer's own
  contract and does not block.
* ``sealed=True`` -- sealed contexts are built per node and per
  message; the kernel builds neither, so a sealed run must step node by
  node for the sealing to apply at all.
* attached **trace sinks** -- sinks observe per-message
  :class:`~repro.localmodel.network.MessageRecord` lists; building them
  would reintroduce the per-message cost the kernel exists to remove.
* an **inbox_order** seed -- the determinism sanitizer permutes real
  inbox dicts, which the kernel never materializes.
* a **heterogeneous** network -- mixed program classes, or one class
  constructed with mismatched parameters (kernels raise
  :class:`KernelIneligible` while validating).

:meth:`BatchExecutor.run` takes the kernel exactly when none of these
holds, and otherwise runs the per-node scheduler and records why in
:attr:`BatchExecutor.fallback_reason`.  Outputs and stats are identical
either way, so there is nothing to choose: code that needs the per-node
path on purpose constructs :class:`SyncNetwork` directly.
:meth:`BatchExecutor.plan` answers which path a run would take, and
why, without running it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..graphs.index import GraphIndex, graph_index
from .network import NodeProgram, RunStats, SyncNetwork, TraceSink

__all__ = [
    "BatchExecutor",
    "BatchKernel",
    "KernelIneligible",
]

class KernelIneligible(Exception):
    """A kernel declined this network (mixed parameters, odd initial state).

    Raised by :class:`BatchKernel` constructors while validating the
    program instances; :class:`BatchExecutor` turns it into a per-node
    fallback whose :attr:`~BatchExecutor.fallback_reason` is the
    exception's message.
    """


class BatchKernel:
    """Whole-round kernel contract: one object advancing all nodes at once.

    A kernel is constructed with the (unstarted) network and the cached
    :class:`~repro.graphs.index.GraphIndex` of its graph; the constructor
    must validate that every program instance carries the configuration
    the kernel compiled for, raising :class:`KernelIneligible` otherwise.
    The executor then alternates:

    * :meth:`round` -- execute one whole synchronous round; returns the
      round's ``(sent, delivered)`` message counts under the library's
      send-vs-deliver contract (on the reliable networks batch mode
      accepts, the two are equal and counted in the sending round,
      matching :meth:`SyncNetwork.step_round`);
    * :attr:`done` -- True once every node's program would have set
      ``done`` on the per-node path; checked *before* each round, so a
      kernel needing ``r`` rounds completes within ``max_rounds=r``;
    * :meth:`finalize` -- called once after completion: write each
      program's ``output`` and flip its ``done`` flag, so
      :meth:`SyncNetwork.outputs` and downstream introspection see
      exactly what the per-node path would have left behind.
    """

    def __init__(self, net: SyncNetwork, index: GraphIndex):
        """Bind the network; subclasses validate and build their arrays."""
        self.net = net
        self.index = index

    @property
    def done(self) -> bool:
        """Whether every program would be ``done`` on the per-node path."""
        raise NotImplementedError

    def round(self) -> Tuple[int, int]:
        """Execute one whole round; return its ``(sent, delivered)`` counts."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Write ``output``/``done`` onto the program instances."""
        raise NotImplementedError


class BatchExecutor:
    """Run a homogeneous node-program network as whole-round kernels.

    Drop-in front-end over :class:`SyncNetwork`: same constructor
    surface (graph, factory, ``sealed``, ``sinks``, ``inbox_order``,
    ``faults``).  :meth:`run` returns the same outputs dict,
    :attr:`stats` the same :class:`RunStats`, and :meth:`outputs` the
    same snapshot as the underlying network -- whichever path executed.
    """

    def __init__(
        self,
        graph: Graph,
        program_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
        sealed: bool = False,
        sinks: Optional[List[TraceSink]] = None,
        inbox_order: Optional[int] = None,
        faults: Optional[Any] = None,
    ):
        """Build the underlying network; :meth:`run` picks the dispatch."""
        self.network = SyncNetwork(
            graph,
            program_factory,
            sealed=sealed,
            sinks=sinks,
            inbox_order=inbox_order,
            faults=faults,
        )
        #: which path :meth:`run` actually took: "batch", "node", or None
        #: before any run.
        self.executed: Optional[str] = None
        #: why :meth:`run` fell back to the per-node path: the joined
        #: blocker list, or the kernel's own ineligibility message
        #: (:class:`KernelIneligible` at run time); None when the batch
        #: path ran or before any run.
        self.fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    @property
    def stats(self) -> RunStats:
        """The underlying network's round/message accounting."""
        return self.network.stats

    def outputs(self) -> Dict[Vertex, Any]:
        """Snapshot of ``{node: program.output}`` (same order as the network)."""
        return self.network.outputs()

    def _batch_blockers(self) -> List[str]:
        """Why the kernel cannot run this network ([] when it can)."""
        net = self.network
        blockers: List[str] = []
        faults = net.faults
        if faults is not None and not faults.is_empty():
            blockers.append(
                "fault plan is non-empty: fault injection is per-message "
                "and requires the per-node path"
            )
        if net.sealed:
            blockers.append(
                "sealed=True: sealed contexts are built by per-node "
                "dispatch only"
            )
        if net.sinks:
            blockers.append(
                "trace sinks are attached: per-message records require "
                "the per-node path"
            )
        if net.inbox_order is not None:
            blockers.append(
                "inbox_order is set: the determinism sanitizer permutes "
                "real inboxes, which the kernel never materializes"
            )
        if net.stats.rounds:
            blockers.append("the network has already executed rounds")
        classes = {type(p) for p in net.programs.values()}
        if len(classes) > 1:
            names = ", ".join(sorted(c.__name__ for c in classes))
            blockers.append(f"mixed program classes ({names})")
        elif classes:
            cls = classes.pop()
            if cls.batch_kernel is None:
                blockers.append(
                    f"{cls.__name__} declares no batch kernel"
                )
        return blockers

    def plan(self) -> Tuple[str, List[str]]:
        """Which path a run would take: ``("batch" | "node", blockers)``.

        ``"batch"`` exactly when there are no blockers.  Kernel-side
        validation (:class:`KernelIneligible`) happens at run time and
        is not visible here.
        """
        blockers = self._batch_blockers()
        return ("node" if blockers else "batch"), blockers

    def run(self, max_rounds: int = 10_000) -> Dict[Vertex, Any]:
        """Run to completion; same contract as :meth:`SyncNetwork.run`.

        Returns the per-node outputs; raises ``RuntimeError`` when the
        round budget is exhausted with programs still running (the
        budget is exact on both paths: a run needing ``r`` rounds
        succeeds with ``max_rounds=r``).
        """
        net = self.network
        blockers = self._batch_blockers()
        if blockers:
            return self._run_per_node("; ".join(blockers), max_rounds)
        self.executed = "batch"
        self.fallback_reason = None
        if not net.programs:
            # an empty graph completes in zero rounds on both paths
            return net.outputs()
        kernel_cls = next(iter(net.programs.values())).batch_kernel
        try:
            kernel: BatchKernel = kernel_cls(net, graph_index(net.graph))
        except KernelIneligible as exc:
            return self._run_per_node(str(exc), max_rounds)
        stats = net.stats
        for _round in range(max_rounds):
            if kernel.done:
                break
            sent, delivered = kernel.round()
            stats.record_round(sent, delivered)
        if not kernel.done:
            raise RuntimeError(
                f"network did not terminate within {max_rounds} rounds; "
                f"{len(net.programs)} nodes still running"
            )
        kernel.finalize()
        return net.outputs()

    def _run_per_node(self, reason: str, max_rounds: int) -> Dict[Vertex, Any]:
        self.executed = "node"
        self.fallback_reason = reason
        return self.network.run(max_rounds=max_rounds)
