"""Asynchrony-robust encoding.

A solution must satisfy the formula under every execution whose local
counters never drift apart by more than tau.  The encoding extends each
trajectory tau steps past the loop, replaces each per-robot satisfaction
variable by a windowed conjunction over tau+1 consecutive steps, and
strengthens the counting, disjunction and until encodings so that every
anchored interleaving of local times keeps the formula true.

The steps past the loop are tied to it by the synchronous encoder's
``tie_rows``, the same rows that close the loop at h, and the inner rows
run to h+tau-1 in the shared ``LogicEncoder``.  ``RobustLogicEncoder``
overrides only the counting leaves, the outer disjunction and the outer
until guard.  With tau = 0 the whole pipeline reduces to the synchronous
encoder and produces the identical constraint set.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .circuit import Signal
from .formula import IOr, IUntil, InnerFormula, OOr, OUntil, OuterFormula, Tcp
from .system import MultiRobotInstance
from .encoder_sync import (EncodedProblem, Formula, LogicEncoder, build_discrete_problem,
                           build_sync_problem, prepare_formula)


class RobustLogicEncoder(LogicEncoder):
    """Logic rows whose outer satisfaction variables certify the formula at
    *anchor* times: true no matter how local counters in [t, t+tau] are
    interleaved, with tau = ``layout.tau``.  Built only for tau >= 1; at
    tau = 0 the synchronous encoder is the robust one."""

    TAG = "robust"

    # -- windowed per-robot satisfaction -----------------------------------

    def robust_vars(self, phi: InnerFormula, robots: Sequence[int],
                    steps: range) -> list[list[Signal]]:
        """Per step t of ``steps``, the conjunction of z[phi][n][t..t+tau]
        for each robot n of ``robots``: robot n satisfies phi at every
        local time an anchored adversary could pick.  The ones not built
        yet are one block."""
        lay = self.layout
        missing = [(n, t) for t in steps for n in robots if (phi, n, t) not in self.robust]
        if missing:
            windows = [self.row(phi, n)[t:t + lay.tau + 1] for n, t in missing]
            fid = lay.fid(phi)
            made = self.circuit.gates("AND", windows,
                                      [f"r{fid}_n{n}_t{t}" for n, t in missing], "robust")
            for (n, t), s in zip(missing, made):
                self.robust[(phi, n, t)] = s
        return [[self.robust[(phi, n, t)] for n in robots] for t in steps]

    # -- counting propositions ------------------------------------------------

    def _tcp_row(self, tcp: Tcp) -> list[Signal]:
        lay = self.layout
        scope = self._tcp_scope(tcp)
        size, steps = len(scope), range(lay.h)
        if not 1 <= tcp.m <= size:
            return self._at_least((), tcp.m, size, tcp, steps)
        robust = self.robust_vars(tcp.inner, scope, steps)
        if tcp.m > 1 or size < lay.n_robots:
            return self._at_least(robust, tcp.m, size, tcp, steps)
        # Either some robot holds phi through the whole window, or every
        # robot holds phi at exactly t: the anchoring robot's local time is
        # t, so one of them is caught satisfying phi.
        y_tilde = self._at_least(robust, 1, size, tcp, steps, "yt")
        plain = [[self.row(tcp.inner, n)[t] for n in scope] for t in steps]
        y_bar = self._at_least(plain, size, size, tcp, steps, "yb")
        for t in steps:
            self.outer_extra[(tcp, t, "tilde")] = y_tilde[t]
            self.outer_extra[(tcp, t, "bar")] = y_bar[t]
        return self.circuit.gates("OR", [list(pair) for pair in zip(y_tilde, y_bar)],
                                  [self._name(tcp, None, t) for t in steps], "robust")

    # -- disjunction -----------------------------------------------------------

    def _or_row(self, node: Union[IOr, OOr], n: Optional[int]) -> list[Signal]:
        lay = self.layout
        kids = [self.row(c, n) for c in node.children]
        pooled = [c for c in node.children
                  if isinstance(c, Tcp) and c.group is None and c.m >= 1]
        if len(pooled) < 2:
            return super()._or_row(node, n)
        # A robot may contribute to different disjuncts at different local
        # times; pooling counts robots that hold the disjunction of the
        # inner tasks through the whole window.  If more than sum(m_i - 1)
        # such robots exist, some disjunct reaches its threshold at every
        # anchored interleaving.
        phi_or = IOr(tuple(c.inner for c in pooled))
        threshold = 1 + sum(c.m - 1 for c in pooled)
        steps = range(lay.h)
        pool = self.robust_vars(phi_or, range(lay.n_robots), steps) \
            if threshold <= lay.n_robots else ()
        pool_y = self._at_least(pool, threshold, lay.n_robots, node, steps, "yp")
        for t in steps:
            self.outer_extra[(node, t, "pool")] = pool_y[t]
        return self.circuit.gates("OR", [[k[t] for k in kids] + [pool_y[t]] for t in steps],
                                  [self._name(node, None, t) for t in steps], "robust")

    # -- until ----------------------------------------------------------------

    def _until_guard(self, node: Union[IUntil, OUntil]) -> Formula:
        # While waiting for the right side, the *disjunction* of both sides
        # must hold robustly; under asynchrony the handover step may show a
        # mix of robots still on the left task and robots already on the
        # right one.  Inner until keeps its plain guard.
        if isinstance(node, IUntil):
            return node.lhs
        return OOr((node.lhs, node.rhs))


def build_robust_problem(inst: MultiRobotInstance, mu: OuterFormula, h: int,
                         tau: int) -> EncodedProblem:
    """Feasibility program whose solutions tolerate any counter drift up to
    ``tau``.  ``tau = 0`` delegates to the synchronous builder and yields the
    identical constraint set."""
    if tau == 0:
        return build_sync_problem(inst, mu, h)
    return build_discrete_problem(inst, prepare_formula(mu, inst, tau), h, tau,
                                  RobustLogicEncoder, "robust")
