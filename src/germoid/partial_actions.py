"""Partial group actions, partial transformation groupoids, the partial
action of the maximal group image on the filter space, the isomorphism of
the universal groupoid with the partial transformation groupoid, enveloping
(global) actions, and the Khoshkam-Skandalis Morita pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import errors
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    action_groupoid,
    connected_components,
    enveloping_action_of_functor,
    functor_report,
    groupoid_functor,
    is_faithful,
    reduction,
    scope_enter,
    scope_twins,
    semidirect_projection,
    validate_groupoid,
    verify_isomorphism,
)
from .germs import (
    GermGroupoid,
    beta_maps,
    germ_groupoid,
    induced_functor,
    inverse_defects,
    saction_from_gspace,
    universal_groupoid,
)
from .semigroups import (
    FiniteGroup,
    InvSemigroup,
    SemigroupHom,
    SigmaMap,
    first_failing_product,
    is_e_unitary,
    is_locally_idempotent_pure,
    max_group_image,
)
from .spectra import KSCertificates, check_ks_condition, enumerate_filters


class PartialGroupAction:
    """A partial action of a finite group on a finite set.

    ``maps[g, x]`` is theta(g)(x) or -1; the domain of theta(g) is X_{g^{-1}}.
    """

    def __init__(self, group: FiniteGroup, point_labels, maps):
        self.group = group
        self.point_labels = tuple(point_labels)
        self.maps = np.asarray(maps, dtype=np.int64)
        self.maps.setflags(write=False)

    @property
    def n_points(self):
        return len(self.point_labels)

    def __call__(self, g: int, x: int):
        y = int(self.maps[g, x])
        return y if y >= 0 else None

    def domain(self, g: int) -> frozenset:
        """X_{g^{-1}}, the domain of theta(g)."""
        return frozenset(int(x) for x in np.flatnonzero(self.maps[g] >= 0))

    def is_global(self) -> bool:
        return bool((self.maps >= 0).all())


def validate_partial_action(G: FiniteGroup, point_labels, maps) -> PartialGroupAction:
    """Check one partial map per group element on the points, theta(1)
    total, theta(g^{-1}) = theta(g)^{-1}, and the dual prehomomorphism law
    theta(g) theta(h) <= theta(gh).

    Each law is checked for all group elements at once, the last one by
    :func:`~germoid.semigroups.first_failing_product`, which fails a pair
    (g, h) where theta(g) theta(h) is defined at a point and differs there
    from theta(gh); the witness is the first failure in id order.  Inside a
    :func:`~germoid.groupoids.validated_once` scope, maps exactly equal to
    those of a partial action of the same G that passed there give a new
    action unchecked.
    """
    theta = PartialGroupAction(G, point_labels, np.asarray(maps))
    m = theta.n_points
    maps = theta.maps
    key = ("partial", id(G), maps.shape, m)
    if any(np.array_equal(maps, t.maps) for t in scope_twins(key)):
        return theta
    if maps.shape != (len(G), m):
        raise errors.InvalidParams("need one partial map per semigroup element")
    points = np.arange(m)
    if (maps[G.identity] != points).any():
        raise errors.IdentityNotTotal("theta(1) must be the identity of X")
    # theta(g^-1) must undo theta(g) on exactly its image
    repeated, not_undone, overshoots = inverse_defects(maps, G.star)
    failing = repeated | not_undone | overshoots
    if failing.any():
        g = int(np.flatnonzero(failing)[0])
        if repeated[g]:
            raise errors.NotBijective(f"theta({g}) is not injective")
        raise errors.InverseMismatch(g)
    # theta(g) theta(h) at [g, h, x], where both are defined, against theta(gh)
    bad = first_failing_product(
        G.table, maps, lambda comp, direct: (comp >= 0) & (comp != direct))
    if bad is not None:
        raise errors.NotDualPrehom(bad[0], bad[1])
    scope_enter(key, theta)
    return theta


def partial_trans_groupoid(theta: PartialGroupAction, name=None) -> FiniteGroupoid:
    """G x X with arrows (g, x) for x in X_{g^{-1}}, (g, x)(h, y) = (gh, y)."""
    G = theta.group
    return validate_groupoid(action_groupoid(
        theta.maps, lambda g, h: G.table[g, h], G.star,
        np.full(theta.n_points, G.identity), G.names, theta.point_labels,
        name=name or f"{G.name}|X"))


def theta_from_sigma(S: InvSemigroup,
                     sigma: SigmaMap | None = None) -> PartialGroupAction:
    """The partial action of the maximal group image on the filter space.

    theta(g) is the union of beta_s over the sigma-fiber of g; overlapping
    members of a fiber agree on the intersection of their domains (this is
    where E-unitarity enters), which is verified during assembly.  Its
    ``space`` is :func:`~germoid.spectra.enumerate_filters` of S.  For
    sigma None or S's own :func:`max_group_image` the action, validated
    once, is memoized on the semigroup.  The maps beta_s are the memoized
    :func:`~germoid.germs.beta_maps` of S.
    """
    if not is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    own = max_group_image(S)
    if sigma is None:
        sigma = own
    if sigma is own and S._theta is not None:
        return S._theta
    G = sigma.group
    space = enumerate_filters(S, contracted=False)
    beta = beta_maps(S)
    s_of, x_of = np.nonzero(beta >= 0)
    g_of = np.asarray(sigma.classmap)[s_of]
    maps = np.full((len(G), len(space)), -1, dtype=np.int64)
    maps[g_of, x_of] = beta[s_of, x_of]
    disagree = maps[g_of, x_of] != beta[s_of, x_of]
    if disagree.any():
        i = int(np.flatnonzero(disagree)[0])
        raise errors.InvariantViolation(
            "sigma-fiber members disagree on a shared domain",
            (int(s_of[i]), int(x_of[i])))
    theta = validate_partial_action(
        G, [space.label(i) for i in range(len(space))], maps)
    theta.space = space
    theta.sigma = sigma
    if sigma is own:
        S._theta = theta
    return theta


def verify_main1(S: InvSemigroup):
    """Mutually inverse functors between the universal groupoid and the
    partial transformation groupoid of the filter-space partial action.

    Phi sends [s, phi] to (sigma(s), phi); Psi sends (g, phi) to [s, phi]
    for the least fiber member s defined at phi, that is with phi in
    dom beta_{s*s}.  Returns (ok, Phi, Psi).
    """
    if not is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    sigma = max_group_image(S)
    univ = universal_groupoid(S, contracted=False)
    theta = theta_from_sigma(S, sigma)
    trans = partial_trans_groupoid(theta, name=f"G({S.name})xE^")

    n, m = len(S), univ.n_units
    classmap = np.asarray(sigma.classmap, dtype=np.int64)
    s, x = univ.arrow_pairs.T
    Phi = groupoid_functor(univ, trans, range(m), trans.arrow_at[classmap[s], x])

    # per (g, x), the least s with sigma(s) = g and x in dom beta_s, which
    # is dom beta_{s*s}: read off the maps theta_from_sigma memoized
    s, x = np.nonzero(beta_maps(S) >= 0)
    least = np.full(len(sigma.group) * m, n)          # n: no such s
    np.minimum.at(least, classmap[s] * m + x, s)
    g, y = trans.arrow_pairs.T
    Psi = groupoid_functor(trans, univ, range(m), univ.germ(least[g * m + y], y))

    ok = verify_isomorphism(Phi, Psi) and verify_isomorphism(Psi, Phi)
    return ok, Phi, Psi


@dataclass
class EnvelopeResult:
    """Globalization of a partial action: quotient space, global action,
    embedding of the original points, and the inclusion functor."""

    theta: PartialGroupAction
    global_action: PartialGroupAction
    embedding: tuple              # point x -> class of (1, x)
    classes: tuple                # class id -> tuple of (g, x) pairs
    inclusion: GroupoidFunctor    # G x X -> G x X~
    report: dict                  # functor_report of the inclusion


def enveloping_group_action(theta: PartialGroupAction) -> EnvelopeResult:
    """The enveloping (global) action on X~ = (G x X)/~.

    (g, x) ~ (h, y) iff x lies in X_{g^{-1}h} and h^{-1}g x = y; the global
    action is g'[g, x] = [g'g, x].  The embedding x -> [1, x] restricts the
    global action back to theta, and the inclusion of transformation
    groupoids is a weak equivalence (checked, returned in the report).
    An image outside the points raises ``InvalidAction`` at the first
    (g, x) in row order.
    """
    G = theta.group
    n, m = len(G), theta.n_points
    maps = theta.maps
    if (maps >= m).any():
        g, x = np.argwhere(maps >= m)[0]
        raise errors.InvalidAction(f"theta({g}) sends point {x} outside the points")
    # (g, x) is item g m + x, and (g, x) ~ (h, y) when y = theta(h^{-1} g)(x)
    ids = np.arange(n)
    to = maps[G.table[G.star[None, :], ids[:, None]]]           # [g, h, x]
    g, h, x = np.nonzero(to >= 0)
    classes, index = connected_components(n * m, g * m + x, h * m + to[g, h, x])
    reps = np.array([c[0] for c in classes], dtype=np.int64)
    rep_g, rep_x = np.divmod(reps, m)
    glob = index[G.table[:, rep_g] * m + rep_x]
    labels = [f"[{G.names[g]},{theta.point_labels[x]}]"
              for g, x in zip(rep_g.tolist(), rep_x.tolist())]
    global_action = validate_partial_action(G, labels, glob)
    embedding = index[G.identity * m + np.arange(m)]
    if len(np.unique(embedding)) != m:
        raise errors.InvariantViolation(
            "embedding of X into its globalization must be injective",
            tuple(embedding.tolist()))
    # restriction of the global action to the image recovers theta
    defined = maps >= 0
    gx = glob[:, embedding]
    inside = np.zeros(len(reps), dtype=bool)
    inside[embedding] = True
    wrong = np.where(defined, gx != embedding[np.where(defined, maps, 0)],
                     inside[gx])
    if wrong.any():
        g, x = (int(v) for v in np.argwhere(wrong)[0])
        raise errors.InvariantViolation(
            "globalization must extend theta" if defined[g, x] else
            "globalization must not enlarge theta inside X", (g, x))
    small = partial_trans_groupoid(theta)
    big = partial_trans_groupoid(global_action, name=f"{G.name}|env")
    g, x = small.arrow_pairs.T
    inclusion = groupoid_functor(small, big, embedding,
                                 big.arrow_at[g, embedding[x]])
    report = functor_report(inclusion)
    return EnvelopeResult(theta, global_action, tuple(embedding.tolist()),
                          tuple(tuple(zip((c // m).tolist(), (c % m).tolist()))
                                for c in classes),
                          inclusion, report)


@dataclass
class KSPipelineResult:
    """Everything the Morita pipeline produces, for reporting and testing."""

    phi: SemigroupHom
    source: FiniteGroupoid        # (possibly reduced) universal groupoid of S
    induced: GroupoidFunctor      # source -> G(T)
    ks_certificates: KSCertificates
    space_labels: tuple           # points of the enveloping T-space X
    taction: "object"             # SAction of T on X
    target: GermGroupoid          # germ groupoid T x X
    alpha: GroupoidFunctor        # source -> target, a weak equivalence
    report: dict                  # functor_report of alpha
    sizes: dict

    @property
    def ok(self):
        return self.report["weak_equivalence"]

    def to_json(self) -> str:
        return b"".join(self.json_chunks()).decode()

    def json_chunks(self):
        """``json.dumps`` of sizes, conditions, certificates and pass, with
        sorted keys, as ASCII byte blocks; the certificates write their own
        text, which comes first in that order."""
        rest = json.dumps({
            "sizes": self.sizes,
            "conditions": self.report,
            "pass": self.ok,
        }, sort_keys=True)
        yield b'{"certificates": '
        yield from self.ks_certificates.json_chunks()
        yield b", " + rest[1:].encode()


def ks_pipeline(phi: SemigroupHom, contract_to=None) -> KSPipelineResult:
    """Morita equivalence of the universal groupoid of S with a germ groupoid
    of a T-action, out of a locally idempotent pure homomorphism phi: S -> T.

    Chains the induced functor of universal groupoids, its faithfulness, the
    enveloping action of that functor, and the translation of the resulting
    groupoid space into an inverse semigroup action.  ``contract_to`` may
    name an invariant unit subset of the source groupoid (ideal perp or
    tight units) to reproduce the contracted variants.
    """
    if not is_locally_idempotent_pure(phi):
        raise errors.NotLocallyIdempotentPure(
            "the pipeline needs a locally idempotent pure homomorphism")
    certs = check_ks_condition(phi)

    F = induced_functor(phi)
    source = F.source
    if contract_to is not None:
        red = reduction(source, contract_to)
        F = groupoid_functor(
            red, F.target,
            [F.unit_map[u] for u in red.parent_units],
            [F.arrow_map[a] for a in red.parent_arrows])
        source = red

    if not is_faithful(F):
        raise errors.FaithfulnessFailed(
            "induced cocycle of a locally idempotent pure morphism must be faithful")

    gaction, alpha0, sd, _classes = enveloping_action_of_functor(F)
    taction = saction_from_gspace(gaction)
    target = germ_groupoid(taction, name=f"{phi.target.name}|envX")
    # identify T x X (germs) with G(T) x X (semidirect): [t, x] -> ([t, p(x)], x)
    gt = F.target
    t, x = target.arrow_pairs.T
    amap = sd.arrow_at[gt.germ(t, np.asarray(gaction.anchor)[x]), x]
    ident = groupoid_functor(target, sd, range(target.n_units), amap)
    if not verify_isomorphism(ident):
        raise errors.InvariantViolation(
            "germ groupoid must match the semidirect product", ident.arrow_map)
    alpha0_arrows = np.array(alpha0.arrow_map, dtype=np.int64)
    back = np.argsort(amap)                     # ident is a bijection
    alpha = groupoid_functor(source, target, alpha0.unit_map, back[alpha0_arrows])
    report = functor_report(alpha)
    # the projection relation pi . alpha = F
    proj = semidirect_projection(sd, gt)
    moved = np.array(proj.arrow_map)[alpha0_arrows] != F.arrow_map
    if moved.any():
        raise errors.InvariantViolation(
            "projection must recover the cocycle", int(np.flatnonzero(moved)[0]))
    sizes = {
        "source_units": source.n_units,
        "source_arrows": source.n_arrows,
        "space_points": len(gaction.point_labels),
        "target_units": target.n_units,
        "target_arrows": target.n_arrows,
    }
    return KSPipelineResult(phi, source, F, certs, gaction.point_labels,
                            taction, target, alpha, report, sizes)
