"""Asynchrony-robust encoding.

A solution must satisfy the formula under every execution whose local
counters never drift apart by more than tau.  The encoding extends each
trajectory tau steps past the loop, replaces each per-robot satisfaction
variable by a windowed conjunction over tau+1 consecutive steps, and
strengthens the counting, disjunction and until encodings so that every
anchored interleaving of local times keeps the formula true.

With tau = 0 the whole pipeline reduces to the synchronous encoder and
produces the identical constraint set.
"""

from __future__ import annotations

import warnings
from typing import Optional

from .formula import (IOr, InnerFormula, ONext, ONot, OOr, OuterFormula, Tcp,
                      normalize, subformulas)
from .ilp import IlpModel, LinExpr, VarId
from .system import MultiRobotInstance
from .encoder_sync import (EncodedProblem, InnerEncoder, Layout, OuterEncoder,
                           _check_instance, add_state_vector,
                           build_sync_problem, discrete_atom_backend,
                           encode_collision, encode_dynamics, encode_loop,
                           successor_set)


def extend_states(model: IlpModel, layout: Layout, h: int, tau: int) -> None:
    """One-hot state vectors for steps h+1 .. h+tau, pinned to their wrapped
    loop positions once the loop start is chosen.

    The lasso's state at h+k is k steps past w[h] = w[l], so it lies in
    R_{h+k} = succ(R_{h+k-1}), continuing the reachable sets of
    ``encode_dynamics``; the other entries are the constant 0.  As in
    ``encode_loop`` one side ties the vectors: for loop start l and each
    live entry i of the wrapped source w[wrap(l, h+k)],
    ``src[i] + z_l - w[h+k][i] <= 1``, and two one-hot vectors with
    w[h+k] >= src are equal."""
    if tau == 0:
        return
    for n, ts in enumerate(layout.instance.systems):
        succ = [ts.successors(i) for i in range(ts.n_states)]
        for k in range(1, tau + 1):
            live = successor_set(succ, layout.live[(n, h + k - 1)])
            add_state_vector(model, layout, n, h + k, ts.n_states, live, "robust")
            row = layout.state_vars[(n, h + k)]
            row_live = set(live)
            for l, z in enumerate(layout.loop_vars):
                src_t = layout.wrap_index(l, h + k)
                src = layout.state_vars[(n, src_t)]
                for i in layout.live[(n, src_t)]:
                    expr = LinExpr({src[i]: 1, z: 1})
                    if i in row_live:
                        expr.add_term(row[i], -1)
                    model.add_constraint(expr, "<=", 1, tag="robust")


class RobustOuterEncoder(OuterEncoder):
    """Outer encoding whose satisfaction variables certify the formula at
    *anchor* times: true no matter how local counters in [t, t+tau] are
    interleaved.  Built only for tau >= 1; at tau = 0 the synchronous
    encoder is the robust one."""

    TAG = "robust"

    def __init__(self, model: IlpModel, layout: Layout, inner: InnerEncoder,
                 n_robots: int, tau: int):
        super().__init__(model, layout, inner, n_robots)
        self.tau = tau

    # -- windowed per-robot satisfaction -----------------------------------

    def robust_var(self, phi: InnerFormula, n: int, t: int) -> VarId:
        """Conjunction of z[phi][n][t..t+tau]: robot n satisfies phi at
        every local time an anchored adversary could pick."""
        lay = self.layout
        key = (phi, n, t)
        if key not in lay.robust:
            window = [self.inner.var(phi, n, t + k) for k in range(self.tau + 1)]
            lay.robust[key] = self.model.bool_and(
                window, name=f"r{lay.fid(phi)}_n{n}_t{t}", tag="robust")
        return lay.robust[key]

    # -- counting propositions ------------------------------------------------

    def _tcp_row(self, tcp: Tcp) -> None:
        lay = self.layout
        scope = self._tcp_scope(tcp)
        size = len(scope)
        for t in range(lay.h):
            robust = (self.robust_var(tcp.inner, n, t) for n in scope)
            if tcp.m == 1 and size == self.n_robots:
                # Either some robot holds phi through the whole window, or
                # every robot holds phi at exactly t: the anchoring robot's
                # local time is t, so one of them is caught satisfying phi.
                y_tilde = self._at_least(robust, 1, size, tcp, t, "yt")
                plain = (self.inner.var(tcp.inner, n, t) for n in scope)
                y_bar = self._at_least(plain, size, size, tcp, t, "yb")
                lay.outer_extra[(tcp, t, "tilde")] = y_tilde
                lay.outer_extra[(tcp, t, "bar")] = y_bar
                y = self.model.bool_or([y_tilde, y_bar], name=f"y{lay.fid(tcp)}_t{t}",
                                       tag="robust")
            else:
                y = self._at_least(robust, tcp.m, size, tcp, t)
            self._set(tcp, t, y)

    # -- disjunction -----------------------------------------------------------

    def _or_row(self, mu: OOr) -> None:
        lay = self.layout
        model = self.model
        for c in mu.children:
            self.ensure_row(c)
        pooled = [c for c in mu.children
                  if isinstance(c, Tcp) and c.group is None and c.m >= 1]
        if len(pooled) >= 2:
            # A robot may contribute to different disjuncts at different
            # local times; pooling counts robots that hold the disjunction
            # of the inner tasks through the whole window.  If more than
            # sum(m_i - 1) such robots exist, some disjunct reaches its
            # threshold at every anchored interleaving.
            phi_or = IOr(tuple(c.inner for c in pooled))
            threshold = 1 + sum(c.m - 1 for c in pooled)
            for t in range(lay.h):
                pool = (self.robust_var(phi_or, n, t) for n in range(self.n_robots))
                pool_y = self._at_least(pool, threshold, self.n_robots, mu, t, "yp")
                lay.outer_extra[(mu, t, "pool")] = pool_y
                v = model.bool_or(
                    [lay.outer[(c, t)] for c in mu.children] + [pool_y],
                    name=f"y{lay.fid(mu)}_t{t}", tag="robust")
                self._set(mu, t, v)
        else:
            super()._or_row(mu)

    # -- until ----------------------------------------------------------------

    def _until_guard(self, mu) -> OuterFormula:
        # While waiting for the right side, the *disjunction* of both sides
        # must hold robustly; under asynchrony the handover step may show a
        # mix of robots still on the left task and robots already on the
        # right one.
        return OOr((mu.lhs, mu.rhs))


def build_robust_problem(inst: MultiRobotInstance, mu: OuterFormula, h: int,
                         tau: int, collision: Optional[str] = None) -> EncodedProblem:
    """Feasibility program whose solutions tolerate any counter drift up to
    ``tau``.  ``tau = 0`` delegates to the synchronous builder and yields the
    identical constraint set."""
    if tau == 0:
        return build_sync_problem(inst, mu, h, collision=collision)
    if any(isinstance(node, ONot) for node in subformulas(mu)):
        warnings.warn("formula normalized to positive normal form for the "
                      "robust encoding")
    if collision is not None:
        inst = MultiRobotInstance(inst.systems, inst.initial_states, inst.groups,
                                  collision, inst.grid_shape)
    _check_instance(inst, mu)
    norm = normalize(mu, inst.n_robots, robust=True, groups=inst.groups)
    if any(isinstance(node, ONext) for node in subformulas(norm)):
        warnings.warn(
            "outer next under asynchrony is encoded as a plain one-step "
            "shift of anchor times; interleavings inside the shifted window "
            "are not constrained beyond that")
    model = IlpModel("robust")
    layout = encode_dynamics(model, inst, h, tau=tau)
    encode_loop(model, layout, h)
    extend_states(model, layout, h, tau)
    encode_collision(model, layout, inst, h, tau=tau)
    inner = InnerEncoder(model, layout, discrete_atom_backend(layout, inst))
    outer = RobustOuterEncoder(model, layout, inner, inst.n_robots, tau)
    root = outer.var(norm, 0)
    model.add_constraint(LinExpr({root: 1}), "=", 1, tag="root")
    return EncodedProblem(model, layout, inst, norm, mu, h, tau, "cltlplus")
