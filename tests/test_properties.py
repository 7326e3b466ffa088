"""Property-based tests (hypothesis) for the core invariants.

Ring partition exactness, sub-query coverage, scheduler optimality,
failure fall-back coverage, arc algebra, and the PPS schemes' correctness.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Ring, RingNode, generate_objects
from repro.core.adjust import adjust_ranges, plan_from_schedule, split_slowest
from repro.core.failures import split_failed
from repro.core.ids import Arc, cw_distance, frac, in_arc
from repro.core.node import RoarNode, SubQuery, dedup_matches
from repro.core.scheduler import schedule_heap, schedule_naive
from repro.pps.crypto import FeistelPermutation, keygen_deterministic
from repro.pps.schemes import BloomKeywordScheme, EqualityScheme

# -- strategies -----------------------------------------------------------

points = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
lengths = st.floats(min_value=0.0, max_value=1.0)
speeds_lists = st.lists(
    st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=20
)


class TestArcAlgebra:
    @given(x=st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_frac_in_unit_interval(self, x):
        out = frac(x)
        assert 0.0 <= out < 1.0

    @given(a=points, b=points)
    def test_distances_complementary(self, a, b):
        d = cw_distance(a, b)
        assert 0.0 <= d < 1.0
        # The two distances sum to 0 (same point, within float resolution)
        # or 1 (a full turn).
        total = d + cw_distance(b, a)
        assert min(abs(total), abs(total - 1.0)) < 1e-9

    @given(p=points, s=points, ln=lengths)
    def test_in_arc_matches_exact_arithmetic_off_boundary(self, p, s, ln):
        """``in_arc`` vs exact rational arithmetic, away from float dust.

        Containment is positional (``point`` against ``start + length``),
        chosen because it agrees with bisect ring ownership at every
        boundary (see ``in_arc``'s docstring; hypothesis falsified both
        the old distance-based formula *and* the partition invariant it
        was supposed to uphold -- ``cw_distance`` can round an offset onto
        exactly ``length`` from below, or collapse a ``-1e-83`` offset to
        ``0.0``).  No float formula can match real arithmetic within an
        ulp of the half-open end boundary, so the contract is: exact
        agreement everywhere except that dust zone.
        """
        from fractions import Fraction

        if ln >= 1.0:
            assert in_arc(p, s, ln)
            return
        offset = (Fraction(p) - Fraction(s)) % 1
        if abs(offset - Fraction(ln)) > Fraction(1, 10**12):
            assert in_arc(p, s, ln) == (offset < Fraction(ln))
        # any arc longer than the dust zone owns its own start point
        if ln > 1e-9:
            assert in_arc(s, s, ln)

    @given(s=points, ln=st.floats(min_value=0.01, max_value=0.99), at=points)
    def test_split_preserves_length(self, s, ln, at):
        arc = Arc(s, ln)
        offset = cw_distance(arc.start, at)
        if offset > ln:
            return  # split point outside
        lo, hi = arc.split(at)
        assert lo.length + hi.length == pytest.approx(ln, abs=1e-9)

    @given(
        s1=points,
        l1=st.floats(min_value=0.01, max_value=0.8),
        s2=points,
        l2=st.floats(min_value=0.01, max_value=0.8),
    )
    def test_intersection_symmetric(self, s1, l1, s2, l2):
        a, b = Arc(s1, l1), Arc(s2, l2)
        assert a.intersects(b) == b.intersects(a)
        assert a.intersection_length(b) == pytest.approx(
            b.intersection_length(a), abs=1e-9
        )

    @given(
        s1=points,
        l1=st.floats(min_value=0.01, max_value=0.8),
        s2=points,
        l2=st.floats(min_value=0.01, max_value=0.8),
    )
    def test_intersection_length_bounded(self, s1, l1, s2, l2):
        a, b = Arc(s1, l1), Arc(s2, l2)
        overlap = a.intersection_length(b)
        assert -1e-12 <= overlap <= min(l1, l2) + 1e-9
        if overlap > 1e-9:
            assert a.intersects(b)


class TestRingPartition:
    @given(speeds=speeds_lists)
    def test_proportional_ranges_partition(self, speeds):
        ring = Ring.proportional(speeds)
        ring.validate()
        total = sum(ring.range_of(n).length for n in ring)
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(speeds=speeds_lists, point=points)
    def test_exactly_one_owner(self, speeds, point):
        ring = Ring.proportional(speeds)
        owner = ring.node_in_charge(point)
        owners = [n for n in ring if ring.range_of(n).contains(point)]
        assert owners == [owner]


class TestCoverageInvariant:
    @settings(max_examples=40, deadline=None)
    @given(
        pq=st.integers(min_value=1, max_value=12),
        start=points,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_subquery_windows_partition_objects(self, pq, start, seed):
        rng = random.Random(seed)
        oids = [rng.random() for _ in range(100)]
        subs = [
            SubQuery.normal(1, frac(start + i / pq), pq, index=i)
            for i in range(pq)
        ]
        for oid in oids:
            assert sum(1 for s in subs if dedup_matches(oid, s)) == 1

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=16),
        p=st.integers(min_value=2, max_value=6),
    )
    def test_stored_system_exact_coverage(self, seed, n, p):
        rng = random.Random(seed)
        ring = Ring.proportional([rng.uniform(0.5, 2.0) for _ in range(n)])
        objects = generate_objects(120, rng)
        stores = {}
        for node in ring:
            store = RoarNode(node)
            store.load_objects(objects, p, ring.range_of(node))
            stores[node.name] = store
        start = rng.random()
        matched = {}
        for i in range(p):
            dest = frac(start + i / p)
            sub = SubQuery.normal(1, dest, p, index=i)
            for obj in stores[ring.node_in_charge(dest).name].execute(sub):
                matched[obj.key] = matched.get(obj.key, 0) + 1
        assert len(matched) == len(objects)
        assert set(matched.values()) <= {1}


class TestSchedulerOptimality:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=2, max_value=24),
    )
    def test_heap_equals_naive(self, seed, n):
        rng = random.Random(seed)
        ring = Ring.proportional([rng.uniform(0.2, 4.0) for _ in range(n)])
        p = rng.randint(1, n)
        est = lambda node, fr: fr / node.speed
        h = schedule_heap(ring, p, est)
        nv = schedule_naive(ring, p, est)
        assert h.makespan == pytest.approx(nv.makespan, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=3, max_value=16),
    )
    def test_optimisations_never_hurt(self, seed, n):
        rng = random.Random(seed)
        ring = Ring.proportional([rng.uniform(0.2, 4.0) for _ in range(n)])
        p = rng.randint(2, n)
        est = lambda node, fr: fr / node.speed
        result = schedule_heap(ring, p, est)
        plan = plan_from_schedule(result, est)
        before = plan.makespan
        adjusted = adjust_ranges(plan, ring, est, p)
        assert adjusted.makespan <= before + 1e-12
        split = split_slowest(adjusted, ring, est, p, max_splits=1)
        assert split.makespan <= adjusted.makespan + 1e-12
        assert split.total_width() == pytest.approx(1.0, abs=1e-9)


class TestFailureFallback:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        kill=st.integers(min_value=0, max_value=100),
    )
    def test_coverage_survives_one_failure(self, seed, kill):
        rng = random.Random(seed)
        n, p = 16, 4
        ring = Ring.proportional([rng.uniform(0.5, 2.0) for _ in range(n)])
        objects = generate_objects(150, rng)
        stores = {}
        for node in ring:
            store = RoarNode(node)
            store.load_objects(objects, p, ring.range_of(node))
            stores[node.name] = store
        ring.nodes()[kill % n].alive = False

        start = rng.random()
        subs = [
            SubQuery.normal(1, frac(start + i / p), p, index=i) for i in range(p)
        ]
        resolved = split_failed(ring, subs, p, rng=rng)
        matched = {}
        for sub, node in resolved:
            assert node.alive
            for obj in stores[node.name].execute(sub):
                matched[obj.key] = matched.get(obj.key, 0) + 1
        assert len(matched) == len(objects)
        assert set(matched.values()) <= {1}


class TestMembershipChurnInvariants:
    """Invariants under adversarial interleavings of membership operations.

    For random sequences of add_server / remove_server / fail / recover /
    rebuild / reconfigure(p) against a live deployment with real object
    stores:

    * the ring always partitions [0, 1) exactly (no gaps, no overlap);
    * whenever reconfiguration is stable, every node holds exactly the
      replicas its range demands at the stored level -- nothing beyond the
      replication intent;
    * every query either achieves full single-match coverage of the object
      set, or the failure fall-back raises and the deployment drops the
      query into the yield accounting -- never silent partial results.
    """

    OPS = ("add", "remove", "fail", "recover", "rebuild", "reconfig")

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.lists(
            st.tuples(
                st.sampled_from(OPS), st.integers(min_value=0, max_value=2**16)
            ),
            min_size=3,
            max_size=8,
        ),
    )
    def test_churn_preserves_partition_and_coverage(self, seed, ops):
        from repro.cluster import Deployment, DeploymentConfig, hen_testbed
        from repro.core.failures import FailureCoverageError
        from repro.core.reconfig import ReconfigPhase

        rng = random.Random(seed)
        dep = Deployment(
            DeploymentConfig(
                models=hen_testbed(8),
                p=3,
                dataset_size=1e6,
                seed=seed,
                store_objects=True,
                n_objects_stored=60,
                charge_scheduling=False,
            )
        )
        now = 0.0
        for op, op_seed in ops:
            now += 1.0
            op_rng = random.Random(op_seed)
            self._apply(dep, op, op_rng, now)
            for ring_obj in dep.rings:
                ring_obj.validate()  # exact partition, sorted, no duplicates
            rc = dep.reconfig
            if rc is not None and rc.phase == ReconfigPhase.STABLE:
                self._check_replication_intent(dep)
            self._check_query_coverage_or_drop(dep, op_rng, now)

    def _apply(self, dep, op, rng, now):
        from repro.cluster.models import MODEL_CATALOGUE
        from repro.core.reconfig import ReconfigPhase

        ring = dep.rings[0]
        if op == "add":
            dep.add_server(MODEL_CATALOGUE["dell-1850"], now=now)
        elif op == "remove":
            alive = [n.name for n in ring if dep.servers[n.name].failed is False]
            if len(ring) > 4 and alive:
                dep.remove_server(rng.choice(sorted(alive)), now=now)
        elif op == "fail":
            alive = sorted(
                name for name, s in dep.servers.items() if not s.failed
            )
            if len(alive) > 2:
                dep.fail_node(rng.choice(alive), now)
        elif op == "recover":
            dead = sorted(name for name, s in dep.servers.items() if s.failed)
            if dead:
                dep.recover_node(rng.choice(dead), now)
        elif op == "rebuild":
            dead = sorted(name for name, s in dep.servers.items() if s.failed)
            if dead and len(ring) > 4:
                dep.handle_long_term_failure(dead[0], now=now)
        elif op == "reconfig":
            rc = dep.reconfig
            if rc is not None and rc.phase == ReconfigPhase.STABLE:
                p_new = rng.randint(2, max(2, min(len(ring), 5)))
                if p_new != rc.p_target:
                    rc.request_p(p_new)
                    for node in list(rc.ring):
                        rc.node_step(node.name)

    def _check_replication_intent(self, dep):
        # Replicas may exceed the intent transiently (Section 4.5: surplus
        # is dropped lazily after range shrinks), but an object the stored
        # level demands must NEVER be missing -- that would break coverage.
        ring = dep.rings[0]
        rc = dep.reconfig
        p_store = rc.p_store
        for node in ring:
            store = dep.stores[node.name]
            expected = {
                obj.key
                for obj in rc.objects
                if store.should_store(obj, p_store, ring.range_of(node))
            }
            actual = {obj.key for obj in store.store}
            assert expected <= actual, (
                f"{node.name} is missing replicas its range demands at "
                f"p={p_store:g}: {expected - actual}"
            )

    def _check_query_coverage_or_drop(self, dep, rng, now):
        from repro.core.failures import FailureCoverageError

        ring = dep.rings[0]
        rc = dep.reconfig
        pq = int(math.ceil(rc.safe_pq - 1e-9))
        start = rng.random()
        subs = [
            SubQuery.normal(1, frac(start + i / pq), pq, index=i)
            for i in range(pq)
        ]
        try:
            resolved = split_failed(ring, subs, rc.p_store, rng=rng)
        except FailureCoverageError:
            # The probe raising is placement-dependent (its own rng and
            # start); only a *structural* hole -- a contiguous dead run at
            # least one replication arc wide, which every query's sub-query
            # grid must hit and no placement can bridge -- guarantees the
            # deployment drops.  There, the yield-accounting path must
            # drop the query, never serve partial results.
            if dep.max_dead_range() >= 1.0 / rc.p_store:
                dropped_before = dep.log.dropped
                assert dep.run_query(now, pq) is None
                assert dep.log.dropped == dropped_before + 1
            return
        matched: dict = {}
        for sub, node in resolved:
            assert node.alive, "fall-back routed a sub-query to a dead node"
            for obj in dep.stores[node.name].execute(sub):
                matched[obj.key] = matched.get(obj.key, 0) + 1
        assert len(matched) == len(rc.objects), "incomplete harvest"
        assert set(matched.values()) <= {1}, "object matched more than once"


class TestPRPProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        domain=st.integers(min_value=1, max_value=512),
        seed=st.text(min_size=1, max_size=8),
    )
    def test_feistel_bijective(self, domain, seed):
        perm = FeistelPermutation(keygen_deterministic(seed), domain)
        seen = set()
        for x in range(domain):
            y = perm.encrypt(x)
            assert 0 <= y < domain
            assert perm.decrypt(y) == x
            seen.add(y)
        assert len(seen) == domain


class TestSchemeProperties:
    @settings(max_examples=30, deadline=None)
    @given(value=st.text(min_size=0, max_size=40))
    def test_equality_roundtrip(self, value):
        scheme = EqualityScheme(keygen_deterministic("prop"))
        m = scheme.encrypt_metadata(value)
        assert scheme.match(m, scheme.encrypt_query(value))

    @settings(max_examples=25, deadline=None)
    @given(
        words=st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=10,
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    def test_bloom_no_false_negatives(self, words):
        scheme = BloomKeywordScheme(
            keygen_deterministic("prop"), max_words=6, pad_filters=False
        )
        m = scheme.encrypt_metadata(words)
        for w in words:
            assert scheme.match(m, scheme.encrypt_query(w))
