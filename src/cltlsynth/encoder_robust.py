"""Asynchrony-robust encoding.

A solution must satisfy the formula under every execution whose local
counters never drift apart by more than tau.  The encoding extends each
trajectory tau steps past the loop, replaces each per-robot satisfaction
variable by a windowed conjunction over tau+1 consecutive steps, and
strengthens the counting, disjunction and until encodings so that every
anchored interleaving of local times keeps the formula true.

The steps past the loop are tied to it by the synchronous encoder's
``tie_state``, the same row that closes the loop at h, and the inner rows
run to h+tau-1 in the shared ``LogicEncoder``.  ``RobustLogicEncoder``
overrides only the counting leaves, the outer disjunction and the outer
until guard.  With tau = 0 the whole pipeline reduces to the synchronous
encoder and produces the identical constraint set.
"""

from __future__ import annotations

from typing import Optional, Union

from .formula import IOr, IUntil, InnerFormula, OOr, OUntil, OuterFormula, Tcp
from .ilp import IlpModel, VarId
from .system import MultiRobotInstance
from .encoder_sync import (EncodedProblem, Formula, Layout, LogicEncoder,
                           add_state_vector, build_sync_problem,
                           discrete_atom_backend, encode_collision,
                           encode_dynamics, encode_loop, prepare_formula,
                           successor_set, tie_state)


def extend_states(layout: Layout) -> None:
    """One-hot state vectors for steps h+1 .. h+tau, pinned by ``tie_state``
    to their wrapped loop positions once the loop start is chosen.

    The lasso's state at h+k is k steps past w[h] = w[l], so it lies in
    R_{h+k} = succ(R_{h+k-1}), continuing the reachable sets of
    ``encode_dynamics``; the other entries are the constant 0."""
    for n, ts in enumerate(layout.instance.systems):
        succ = [ts.successors(i) for i in range(ts.n_states)]
        for t in range(layout.h + 1, layout.h + layout.tau + 1):
            live = successor_set(succ, layout.live[(n, t - 1)])
            add_state_vector(layout, n, t, live, "robust")
            tie_state(layout, n, t, "robust")


class RobustLogicEncoder(LogicEncoder):
    """Logic rows whose outer satisfaction variables certify the formula at
    *anchor* times: true no matter how local counters in [t, t+tau] are
    interleaved, with tau = ``layout.tau``.  Built only for tau >= 1; at
    tau = 0 the synchronous encoder is the robust one."""

    TAG = "robust"

    # -- windowed per-robot satisfaction -----------------------------------

    def robust_var(self, phi: InnerFormula, n: int, t: int) -> VarId:
        """Conjunction of z[phi][n][t..t+tau]: robot n satisfies phi at
        every local time an anchored adversary could pick."""
        lay = self.layout
        key = (phi, n, t)
        if key not in lay.robust:
            window = self.row(phi, n)[t:t + lay.tau + 1]
            lay.robust[key] = self.model.bool_and(
                window, name=f"r{lay.fid(phi)}_n{n}_t{t}", tag="robust")
        return lay.robust[key]

    # -- counting propositions ------------------------------------------------

    def _tcp_row(self, tcp: Tcp) -> list[VarId]:
        lay = self.layout
        scope = self._tcp_scope(tcp)
        size = len(scope)
        row = []
        for t in range(lay.h):
            robust = (self.robust_var(tcp.inner, n, t) for n in scope)
            if tcp.m == 1 and size == lay.n_robots:
                # Either some robot holds phi through the whole window, or
                # every robot holds phi at exactly t: the anchoring robot's
                # local time is t, so one of them is caught satisfying phi.
                y_tilde = self._at_least(robust, 1, size, tcp, t, "yt")
                plain = (self.row(tcp.inner, n)[t] for n in scope)
                y_bar = self._at_least(plain, size, size, tcp, t, "yb")
                lay.outer_extra[(tcp, t, "tilde")] = y_tilde
                lay.outer_extra[(tcp, t, "bar")] = y_bar
                row.append(self.model.bool_or([y_tilde, y_bar],
                                              name=self._name(tcp, None, t), tag="robust"))
            else:
                row.append(self._at_least(robust, tcp.m, size, tcp, t))
        return row

    # -- disjunction -----------------------------------------------------------

    def _or_row(self, node: Union[IOr, OOr], n: Optional[int]) -> list[VarId]:
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
        row = []
        for t in range(lay.h):
            pool = (self.robust_var(phi_or, r, t) for r in range(lay.n_robots))
            pool_y = self._at_least(pool, threshold, lay.n_robots, node, t, "yp")
            lay.outer_extra[(node, t, "pool")] = pool_y
            row.append(self.model.bool_or([k[t] for k in kids] + [pool_y],
                                          name=self._name(node, None, t), tag="robust"))
        return row

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
    norm = prepare_formula(mu, inst, tau)
    model = IlpModel("robust")
    layout = encode_dynamics(model, inst, h, tau=tau)
    encode_loop(layout)
    extend_states(layout)
    encode_collision(layout)
    RobustLogicEncoder(layout, discrete_atom_backend(layout)).pin_root(norm)
    return EncodedProblem(model, layout, inst, h, tau, "cltlplus")
