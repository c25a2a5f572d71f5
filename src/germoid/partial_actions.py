"""Partial group actions, partial transformation groupoids, the partial
action of the maximal group image on the filter space, the isomorphism of
the universal groupoid with the partial transformation groupoid, enveloping
(global) actions, and the Khoshkam-Skandalis Morita pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    action_groupoid,
    cocycle_faithfulness_map,
    enveloping_action_of_functor,
    equivalence_classes,
    functor_report,
    groupoid_functor,
    reduction,
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
    restrict_maps,
    saction_from_gspace,
    universal_groupoid,
)
from .semigroups import (
    CHUNK,
    FiniteGroup,
    InvSemigroup,
    SemigroupHom,
    SigmaMap,
    is_e_unitary,
    is_locally_idempotent_pure,
    max_group_image,
)
from .spectra import check_ks_condition, enumerate_filters


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
    """Check theta(1) total, theta(g^{-1}) = theta(g)^{-1}, and the dual
    prehomomorphism law theta(g) theta(h) <= theta(gh).

    Each law is checked for all group elements at once, in slabs of g for
    the last one; the witness is the first failure in id order.
    """
    theta = PartialGroupAction(G, point_labels, np.asarray(maps))
    m = theta.n_points
    maps = theta.maps
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
    defined = maps >= 0
    inner = np.where(defined, maps, 0)
    slab = max(1, CHUNK // max(len(G) * m, 1))
    for lo in range(0, len(G), slab):
        both = maps[lo:lo + slab][:, inner]
        bad = (defined[None] & (both >= 0) &
               (maps[G.table[lo:lo + slab]] != both)).any(axis=2)
        if bad.any():
            g, h = np.argwhere(bad)[0]
            raise errors.NotDualPrehom(int(g) + lo, int(h))
    return theta


def partial_trans_groupoid(theta: PartialGroupAction, name=None) -> FiniteGroupoid:
    """G x X with arrows (g, x) for x in X_{g^{-1}}, (g, x)(h, y) = (gh, y)."""
    G = theta.group
    return validate_groupoid(action_groupoid(
        theta.maps, G.table, G.star, np.full(theta.n_points, G.identity),
        G.names, theta.point_labels, name=name or f"{G.name}|X"))


def theta_from_sigma(S: InvSemigroup, sigma: SigmaMap | None = None,
                     _space=None) -> PartialGroupAction:
    """The partial action of the maximal group image on the filter space.

    theta(g) is the union of beta_s over the sigma-fiber of g; overlapping
    members of a fiber agree on the intersection of their domains (this is
    where E-unitarity enters), which is verified during assembly.
    """
    if not is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    if sigma is None:
        sigma = max_group_image(S)
    G = sigma.group
    space = _space or enumerate_filters(S, contracted=False)
    beta = beta_maps(S, space)
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
    return theta


def verify_main1(S: InvSemigroup):
    """Mutually inverse functors between the universal groupoid and the
    partial transformation groupoid of the filter-space partial action.

    Phi sends [s, phi] to (sigma(s), phi); Psi sends (g, phi) to [s, phi]
    for any fiber member defined at phi.  Returns (ok, Phi, Psi).
    """
    if not is_e_unitary(S):
        raise errors.NotEUnitary(S.name)
    sigma = max_group_image(S)
    univ = universal_groupoid(S, contracted=False)
    theta = theta_from_sigma(S, sigma, _space=univ.action.space)
    trans = partial_trans_groupoid(theta, name=f"G({S.name})xE^")

    unit_map = list(range(univ.n_units))
    phi_arrows = [trans.pair_index[(sigma(s), x)]
                  for s, x in univ.germ_reps]
    Phi = groupoid_functor(univ, trans, unit_map, phi_arrows)

    psi_arrows = []
    for g, x in trans.arrow_pairs:
        m = univ.action.space.mins[x]
        s = next(s for s in range(len(S))
                 if sigma(s) == g and
                 S.mul(m, S.mul(S.inv(s), s)) == m)
        psi_arrows.append(univ.germ(s, x))
    Psi = groupoid_functor(trans, univ, unit_map, psi_arrows)

    ok = verify_isomorphism(Phi, Psi) and verify_isomorphism(Psi, Phi)
    return ok, Phi, Psi


def restrict_partial_action(theta: PartialGroupAction, subset,
                            check_invariant=True) -> PartialGroupAction:
    """Restriction of a partial action to an invariant point subset.

    Invariance (theta(g)(Y n X_{g^{-1}}) within Y) is checked unless
    disabled; the restricted groupoid is the reduction of the unrestricted
    one, which callers can assert arrow-for-arrow.
    """
    subset, sub = restrict_maps(theta.maps, subset, check_invariant)
    restricted = validate_partial_action(
        theta.group, [theta.point_labels[x] for x in subset], sub)
    restricted.parent_points = tuple(subset.tolist())
    return restricted


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
    """
    G = theta.group
    pairs = [(g, x) for g in range(len(G)) for x in range(theta.n_points)]

    def related():
        for g, x in pairs:
            for h in range(len(G)):
                # (g, x) ~ (h, y) iff theta(h^{-1} g) is defined at x
                y = theta(G.mul(G.inv(h), g), x)
                if y is not None:
                    yield (g, x), (h, y)

    classes, cidx = equivalence_classes(pairs, related())
    reps = [cls[0] for cls in classes]
    k = len(reps)
    glob = np.zeros((len(G), k), dtype=np.int64)
    for g in range(len(G)):
        for i, (h, x) in enumerate(reps):
            glob[g, i] = cidx[(G.mul(g, h), x)]
    labels = [f"[{G.names[g]},{theta.point_labels[x]}]" for g, x in reps]
    global_action = validate_partial_action(G, labels, glob)
    embedding = tuple(cidx[(G.identity, x)] for x in range(theta.n_points))
    if len(set(embedding)) != theta.n_points:
        raise errors.InvariantViolation(
            "embedding of X into its globalization must be injective",
            embedding)
    # restriction of the global action to the image recovers theta
    emb = set(embedding)
    for g in range(len(G)):
        for x in range(theta.n_points):
            y = theta(g, x)
            gx = int(glob[g, embedding[x]])
            if y is not None and gx != embedding[y]:
                raise errors.InvariantViolation(
                    "globalization must extend theta", (g, x))
            if y is None and gx in emb:
                raise errors.InvariantViolation(
                    "globalization must not enlarge theta inside X", (g, x))
    small = partial_trans_groupoid(theta)
    big = partial_trans_groupoid(global_action, name=f"{G.name}|env")
    unit_map = embedding
    arrow_map = [big.pair_index[(g, embedding[x])]
                 for g, x in small.arrow_pairs]
    inclusion = groupoid_functor(small, big, unit_map, arrow_map)
    report = functor_report(inclusion)
    return EnvelopeResult(theta, global_action, embedding,
                          tuple(map(tuple, classes)),
                          inclusion, report)


@dataclass
class KSPipelineResult:
    """Everything the Morita pipeline produces, for reporting and testing."""

    phi: SemigroupHom
    source: FiniteGroupoid        # (possibly reduced) universal groupoid of S
    induced: GroupoidFunctor      # source -> G(T)
    ks_certificates: dict
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
        import json

        certs = {f"{e},{f},{t}": list(map(int, c.generators))
                 for (e, f, t), c in sorted(self.ks_certificates.items())}
        return json.dumps({
            "sizes": self.sizes,
            "conditions": self.report,
            "certificates": certs,
            "pass": self.ok,
        }, sort_keys=True)


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
    _, certs = check_ks_condition(phi)

    F = induced_functor(phi)
    source = F.source
    if contract_to is not None:
        red = reduction(source, contract_to)
        F = groupoid_functor(
            red, F.target,
            [F.unit_map[u] for u in red.parent_units],
            [F.arrow_map[a] for a in red.parent_arrows])
        source = red

    _, injective = cocycle_faithfulness_map(F)
    if not injective:
        raise errors.FaithfulnessFailed(
            "induced cocycle of a locally idempotent pure morphism must be faithful")

    gaction, alpha0, sd, _classes = enveloping_action_of_functor(F)
    taction = saction_from_gspace(gaction)
    target = germ_groupoid(taction, name=f"{phi.target.name}|envX")
    # identify T x X (germs) with G(T) x X (semidirect): [t, x] -> ([t, p(x)], x)
    gt = F.target
    amap = []
    for t, x in target.germ_reps:
        arrow = gt.germ(t, gaction.anchor[x])
        amap.append(sd.pair_index[(arrow, x)])
    ident = groupoid_functor(target, sd, range(target.n_units), amap)
    if not verify_isomorphism(ident):
        raise errors.InvariantViolation(
            "germ groupoid must match the semidirect product", ident.arrow_map)
    back = {b: a for a, b in enumerate(amap)}
    alpha = groupoid_functor(
        source, target,
        list(alpha0.unit_map),
        [back[a] for a in alpha0.arrow_map])
    report = functor_report(alpha)
    # the projection relation pi . alpha = F
    proj = semidirect_projection(sd, gt)
    for a in range(source.n_arrows):
        if proj(alpha0(a)) != F(a):
            raise errors.InvariantViolation(
                "projection must recover the cocycle", a)
    sizes = {
        "source_units": source.n_units,
        "source_arrows": source.n_arrows,
        "space_points": len(gaction.point_labels),
        "target_units": target.n_units,
        "target_arrows": target.n_arrows,
    }
    return KSPipelineResult(phi, source, F, certs, gaction.point_labels,
                            taction, target, alpha, report, sizes)
