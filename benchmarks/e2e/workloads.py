"""The six workloads: what they generate from ``--seed`` and what they run.

Every workload is a closed loop with one client.  A *round* is one pass over
the workload's operation list; ``ops(r)`` is a pure function of the seed, so
the oracle child and the measured child — two separate interpreters — see
the same SQL texts, the same inserted rows and the same OD instances.

Nothing from ``repro`` is imported at module level: ``build()`` is timed as
part of ``setup_s`` and must pay for ``import repro`` itself.

Why each workload exists is recorded in ``BENCHMARK.json`` (``why``) and at
length in ``README.md``.
"""
from __future__ import annotations

import os
import random
import statistics
from time import perf_counter

import oracle

#: Share of the row counts ISSUE.md names (snowflake 60k, tpcds 120k, rewrite
#: pack 30k/20k/40k/20k, taxes 10k).  Three set-ups, the oracle's reference
#: and the timed phase have to fit the driver's ~25 s per run; at 1.0 a
#: single set-up of the report workloads already takes 7 s on this host.
SCALE = 0.25

#: ORDER BY keys of the thirteen tpcds_lite templates (the workload module
#: records them for SN/SK/RW but not for Q1–Q13).
TPCDS_ORDER = {
    "Q3": ("ss_store_sk",), "Q4": ("ss_item_sk",), "Q5": ("i_category",),
    "Q6": ("s_state",), "Q8": ("ss_customer_sk",),
    "Q9": ("ss_store_sk", "ss_item_sk"), "Q11": ("i_brand",),
    "Q13": ("ss_sold_date_sk",),
}

TAXES_READ = "SELECT income, payable FROM taxes ORDER BY income"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


class Op:
    """One timed call: a SQL statement or a ``Table.load``."""

    __slots__ = ("cls", "db", "sql", "order", "table", "rows", "key")

    def __init__(self, cls, db, sql="", order=(), table="", rows=(), key=None):
        self.cls = cls        # statement / template id: the per-class median
        self.db = db          # key into Workload.dbs
        self.sql = sql
        self.order = order
        self.table = table    # set for a load
        self.rows = rows
        self.key = key or sql  # where the oracle's reference digest is filed


class Recorder:
    """Per-operation wall samples of one pass, filed by class."""

    def __init__(self) -> None:
        self.by_class = {}
        self.mix = []        # class of every operation of the latest round
        self.cycles = []     # timed seconds per round
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._cycle = 0.0
        self._mix = []

    def op(self, cls: str, wall: float, ok: bool, why: str = "") -> None:
        self.by_class.setdefault(cls, []).append(wall)
        self._mix.append(cls)
        self._cycle += wall
        self.attempted += 1
        if not ok:
            self.fail(f"{cls}: {why}")

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def end_cycle(self) -> None:
        self.cycles.append(self._cycle)
        self.mix, self._mix, self._cycle = self._mix, [], 0.0

    def typical(self) -> dict:
        """Class → the fastest of its samples.  The host slows down in
        bursts (+20–60 % for 5–15 s at a time, see NOISE.md) that only ever
        add time; over ten same-seed runs the per-class median moved by
        14 %, the first quartile by 4 % and the minimum by 1.6 %."""
        return {cls: min(v) for cls, v in self.by_class.items()}

    def geomean_ms(self) -> float:
        return statistics.geometric_mean(self.typical().values()) * 1e3


# ----------------------------------------------------------------------
# SQL workloads
# ----------------------------------------------------------------------
class SqlWorkload:
    name = ""
    exec_kw = {}
    uses = ("snow", "tpcds", "pack")
    #: Rounds per second of ``--seconds`` on the reference host at SCALE, so a
    #: run is a fixed operation count; a slower host is cut off by the time
    #: box in ``measure`` instead of overrunning the driver's budget.
    rounds_per_second = 1.0
    min_rounds = 3
    #: Untraced count rounds and traced rounds, interleaved one by one.
    trace_rounds = 3

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.dbs = {}
        #: statement class → access paths of its latest plan (see
        #: ``layers.SqlObserver.prepay``)
        self.access = {}

    # -- set-up ---------------------------------------------------------
    def build(self) -> None:
        from repro.workloads import (
            build_rewrite_pack,
            build_snowflake,
            build_taxes,
            build_tpcds_lite,
        )

        def n(rows):
            return max(200, int(rows * self.scale))

        if "snow" in self.uses:
            self.snow = build_snowflake(
                days=730, sales_rows=n(60_000), seed=self.seed * 10 + 1
            )
            self.dbs["snow"] = self.snow.database
        if "tpcds" in self.uses:
            self.tpcds = build_tpcds_lite(
                days=1095, sales_rows=n(120_000), seed=self.seed * 10 + 2
            )
            self.dbs["tpcds"] = self.tpcds.database
        if "pack" in self.uses:
            self.dbs["pack"] = build_rewrite_pack(
                fact_rows=n(30_000), wide_rows=n(20_000), order_rows=n(40_000),
                customers=n(20_000), seed=self.seed * 10 + 3,
            )
        if "taxes" in self.uses:
            build_taxes(self.dbs["snow"], rows=n(10_000), seed=self.seed * 10 + 4)

    def warmup(self) -> None:
        """One untimed pass, so caches are full and lazy set-up is done."""
        self.begin_round(-1)
        for op in self.ops(-1):
            if not op.table:
                self.dbs[op.db].execute(op.sql, **self.exec_kw)

    def close(self) -> None:
        pass

    # -- operations -----------------------------------------------------
    def begin_round(self, r: int) -> None:
        pass

    def ops(self, r: int) -> list:
        raise NotImplementedError

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(self.rounds_per_second * seconds))

    def trace_rounds_for(self, seconds: float) -> int:
        return max(1, min(self.trace_rounds, round(seconds)))

    def texts(self, rounds: int) -> list:
        """Every generated input of the first ``rounds`` rounds, as text."""
        return [op.sql or repr(op.rows) for r in range(rounds) for op in self.ops(r)]

    def references(self, rounds: int) -> dict:
        """Oracle child: every statement of round 0 checked in full against
        the sqlite mirror, and one reference digest per statement of every
        round.  Loads go to the mirror too, round by round."""
        mirror = oracle.Mirror(self.dbs)
        refs, checked, errors = {}, 0, []
        for r in range(rounds):
            if r == 0:
                self.begin_round(0)
            for op in self.ops(r):
                database = self.dbs[op.db]
                if op.table:
                    mirror.load(op.db, op.table, op.rows)
                    if r == 0:
                        database.table(op.table).load(op.rows)
                    continue
                if op.key in refs:
                    continue
                reference = mirror.query(op.db, op.sql)
                refs[op.key] = oracle.digest(reference)
                if r == 0:
                    checked += 1
                    result = database.execute(op.sql, **self.exec_kw)
                    if not oracle.same_multiset(result.rows, reference):
                        errors.append(f"{op.cls}: multiset differs from sqlite")
                    elif not oracle.is_ordered(result.columns, result.rows, op.order):
                        errors.append(f"{op.cls}: not ordered by {op.order}")
        mirror.close()
        return {"refs": refs, "attempted": checked, "errors": errors}

    def observer(self, log=None):
        import layers

        return layers.SqlObserver(self, log)

    def run_op(self, op: Op, rec: Recorder, refs: dict, trace=False, observe=None):
        """Time one operation, then judge it (outside the timed region)."""
        database = self.dbs[op.db]
        if op.table:
            table = database.table(op.table)
            t0 = perf_counter()
            try:
                if trace:
                    # The same write as two calls, so that the insert and the
                    # constraint check land in their own layers.
                    table.load(op.rows, check=False)
                    t1 = perf_counter()
                    if table.constraints:
                        table.check_constraints()
                else:
                    table.load(op.rows)
                err = ""
            except Exception as exc:  # boundary: a refused write is a failure
                err = repr(exc)
            wall = perf_counter() - t0
            rec.op(op.cls, wall, not err, err)
            if observe is not None and not err:
                observe.load(op, t0, t1 if trace else t0 + wall, t0 + wall)
            return
        t0 = perf_counter()
        try:
            result = database.execute(op.sql, trace=trace, **self.exec_kw)
            err = ""
        except Exception as exc:  # boundary: any failed statement is counted
            result, err = None, repr(exc)
        wall = perf_counter() - t0
        if result is not None:
            want = refs.get(op.key)
            if want is None:
                err = "no reference"
            elif not oracle.digests_match(oracle.digest(result.rows), want):
                err = f"answer differs from sqlite ({len(result.rows)} rows)"
            else:
                err = self.mode_error(result)
            if observe is not None:
                observe.result(op, result, t0, wall)
        rec.op(op.cls, wall, not err, err)

    def mode_error(self, result) -> str:
        return ""

    def run_round(self, r: int, rec: Recorder, refs: dict, trace=False, observe=None):
        self.begin_round(r)
        ops = self.ops(r)
        for i, op in enumerate(ops):
            self.run_op(op, rec, refs, trace, observe)
            if trace and op.table:
                reads = []
                for later in ops[i + 1:]:
                    if later.table:
                        break
                    reads.append(later)
                observe.prepay(self.dbs[op.db], op.table, reads)
        rec.end_cycle()


class _Report(SqlWorkload):
    def report_statements(self) -> list:
        """The 14 fixed report statements."""
        from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES
        from repro.workloads.snowflake import SNOWFLAKE_QUERIES, skewed_query_sql
        from repro.workloads.tpcds_lite import DATE_QUERIES

        out = []
        for qid, sql, order in SNOWFLAKE_QUERIES:
            if qid != "SN4":
                out.append(Op(qid, "snow", sql, order))
        skewed = skewed_query_sql(self.snow)
        orders = {"SK1": ("p_kind",), "SK3": ("f_date_sk",), "SK4": ("f_date_sk",)}
        for qid in ("SK1", "SK3", "SK4"):
            out.append(Op(qid, "snow", skewed[qid], orders[qid]))
        for qid, sql, order in REWRITE_PACK_QUERIES:
            out.append(Op(qid, "pack", sql, order))
        # The window sits mid-calendar for every seed: fact dates are
        # beta(2,2)-distributed, so a seeded start would move the rows in the
        # window — and Q5/Q8/Q9's times — by ±15 % between seeds.
        lo, hi = self.tpcds.date_range((self.tpcds.days - 700) // 2, 700)
        templates = dict(DATE_QUERIES)
        for qid in ("Q5", "Q8", "Q9"):
            out.append(
                Op(qid, "tpcds", templates[qid].format(lo=lo, hi=hi), TPCDS_ORDER[qid])
            )
        return out

    def ops(self, r: int) -> list:
        if not hasattr(self, "_statements"):
            self._statements = self.report_statements()
        ops = list(self._statements)
        if r >= 0:
            _rng(self.seed, self.name, r).shuffle(ops)
        return ops


class ReportBatch(_Report):
    name = "report_batch"
    exec_kw = {"batch_size": 1024}
    rounds_per_second = 4.8


class ReportRow(_Report):
    name = "report_row"
    exec_kw = {}
    rounds_per_second = 2.4


class ReportProcess(_Report):
    name = "report_process"
    #: Two workers, and never more than the host has cores.
    exec_kw = {"workers": min(2, os.cpu_count() or 1), "backend": "process"}
    rounds_per_second = 3.0

    def mode_error(self, result) -> str:
        """A silent fall down the recovery ladder is not a process number."""
        if result.backend != "process":
            return f"ran on backend {result.backend!r}"
        if result.degraded_to is not None:
            return f"degraded to {result.degraded_to}"
        if result.retries:
            return f"{result.retries} partition retries"
        return ""

    def close(self) -> None:
        from repro.engine.parallel import shutdown_process_pool

        shutdown_process_pool()


class AdhocPlan(SqlWorkload):
    name = "adhoc_plan"
    exec_kw = {"batch_size": 1024}
    rounds_per_second = 1.0
    passes = 3  # never-repeated literal sets per round

    def begin_round(self, r: int) -> None:
        from repro.optimizer.context import clear_theory_cache

        clear_theory_cache()

    def ops(self, r: int) -> list:
        """Round ``r`` of the literal stream.  Texts never repeat across
        rounds (the warm-up is round -1), so rounds are drawn in order."""
        if not hasattr(self, "_rounds"):
            self._rounds = {}
            self._seen = set()
        for index in range(-1, r + 1):
            if index not in self._rounds:
                self._rounds[index] = self._draw_round(index)
        return self._rounds[r]

    def _unique(self, make) -> str:
        while True:
            sql = make()
            if sql not in self._seen:
                self._seen.add(sql)
                return sql

    def _draw_round(self, r: int) -> list:
        from repro.workloads.rewrite_pack import REWRITE_PACK_QUERIES
        from repro.workloads.snowflake import (
            SNOWFLAKE_QUERIES,
            SNOWFLAKE_SKEWED_QUERIES,
        )
        from repro.workloads.tpcds_lite import DATE_QUERIES

        rng = _rng(self.seed, self.name, r)
        snow = {q: (sql, order) for q, sql, order in SNOWFLAKE_QUERIES}
        skew = {q: (sql, order) for q, sql, order in SNOWFLAKE_SKEWED_QUERIES}
        rw2, rw2_order = {q: (s, o) for q, s, o in REWRITE_PACK_QUERIES}["RW2"]
        tp, sn = self.tpcds, self.snow

        def window(days):
            length = rng.randint(3, 14)
            return rng.randrange(0, days - length), length

        def dated(sql, workload, bounds):
            lo, hi = bounds(*window(workload.days))
            return sql.format(lo=lo, hi=hi)

        # Every template carries a literal the seed varies.
        templates = [
            (qid, "tpcds", TPCDS_ORDER.get(qid, ()),
             lambda sql=sql: dated(sql, tp, tp.date_range))
            for qid, sql in DATE_QUERIES
        ]
        templates.append(("SN4", "snow", snow["SN4"][1],
                          lambda: dated(snow["SN4"][0], sn, sn.date_range)))
        templates.append(("SN6", "snow", snow["SN6"][1], lambda: snow["SN6"][0].replace(
            "'brand#2', 'brand#4'",
            "'brand#%d', 'brand#%d'" % tuple(rng.sample(range(1, 21), 2)))))
        for qid in ("SK2", "SK3"):
            templates.append((qid, "snow", skew[qid][1],
                              lambda q=qid: dated(skew[q][0], sn, sn.sk_window)))
        for qid in ("SK5", "SK6"):
            templates.append((qid, "snow", skew[qid][1], lambda q=qid: skew[q][0].format(
                lo=sn.sk_base + rng.randrange(sn.days), hi=0)))
        templates.append(("RW2", "pack", rw2_order, lambda: rw2.replace(
            ">= 300", ">= %d" % rng.randint(0, 600)).replace(
            "< 700", "< %d" % rng.randint(400, 1000))))
        return [
            Op(qid, db, self._unique(make), order)
            for _ in range(self.passes)
            for qid, db, order, make in templates
        ]


class CatalogChurn(SqlWorkload):
    name = "catalog_churn"
    exec_kw = {"batch_size": 1024}
    uses = ("snow", "taxes")
    rounds_per_second = 5.2
    min_rounds = 5

    def _reads(self):
        if not hasattr(self, "_read_ops"):
            from repro.workloads.snowflake import (
                SNOWFLAKE_QUERIES,
                SNOWFLAKE_SKEWED_QUERIES,
            )

            snow = {q: (sql, order) for q, sql, order in SNOWFLAKE_QUERIES}
            skew = {q: (sql, order) for q, sql, order in SNOWFLAKE_SKEWED_QUERIES}
            lo, hi = self.snow.date_range(self.snow.days // 2 - 15, 30)  # the dense middle
            peak = self.snow.sk_base + self.snow.days // 2
            self._read_ops = [
                ("SN4", snow["SN4"][0].format(lo=lo, hi=hi), snow["SN4"][1]),
                ("SK5", skew["SK5"][0].format(lo=peak, hi=0), skew["SK5"][1]),
                ("SN5", snow["SN5"][0], snow["SN5"][1]),
                ("TAX", TAXES_READ, ("income",)),
            ]
        return self._read_ops

    def ops(self, r: int) -> list:
        """{10 fact rows; SN4, SK5, SN5} then {10 OD-valid tax rows; the
        ORDER BY income read}.  Every load bumps the catalog epoch."""
        from repro.workloads.taxes import tax_of

        reads = [
            Op(qid, "snow", sql, order, key=f"{r}:{qid}")
            for qid, sql, order in self._reads()
        ]
        if r < 0:
            return reads  # warm-up: reads only, the data is not touched
        rng = _rng(self.seed, self.name, r)
        sales = [
            (self.snow.sk_base + rng.randrange(self.snow.days), rng.randint(1, 200),
             rng.randint(1, 12), rng.randint(1, 20), round(rng.uniform(0.5, 500.0), 2))
            for _ in range(10)
        ]
        taxes = []
        for i in range(10):
            income = int(rng.lognormvariate(11, 0.8))
            taxes.append((10_000_000 + r * 10 + i, income, *tax_of(income)))
        return [
            Op("sales.load", "snow", table="sales", rows=sales),
            *reads[:3],
            Op("taxes.load", "snow", table="taxes", rows=taxes),
            reads[3],
        ]


# ----------------------------------------------------------------------
# The paper core, with no engine
# ----------------------------------------------------------------------
class OdInference:
    """One round decides a family of 60 random OD theories (20 each over 8,
    10 and 12 attributes, as many premises as attributes) × 20 goals, cold:
    every round builds fresh ``ODTheory`` objects, so no verdict is
    memoised.  Each goal is then decided again warm and every refuted goal
    gets a counterexample; the per-layer pass adds 5 ``prove`` +
    ``check_proof`` searches over 4-attribute instances.

    Implication is coNP-complete and the decision time is heavy-tailed
    (median ~70 µs, p99 > 10 ms, hardest instance ~90 ms): over ten seeds,
    9000 freshly drawn instances per run still moved the mean by 20 % and
    the p90 by 12 %, and renaming attributes or reordering premises changes
    the oracle's search order and with it the time (premise order alone:
    +13 %).  So the *family* is fixed (``FAMILY``) and the seed only draws
    the order in which theories and goals are presented; that leaves every
    instance's hardness alone.  Repeating the same instances every round is
    also what lets the per-instance minimum remove the host's noise.
    (ISSUE.md drew 150 fresh theories per round.)
    """

    name = "od_inference"
    rounds_per_second = 1.5
    min_rounds = 4
    trace_rounds = 2
    FAMILY = 2012
    sizes = (8, 10, 12)
    theories_per_size = 20
    goals = 20
    proofs = 5

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.dbs = {}
        self._instances = None
        # The family is the workload; a smaller one exists for --selftest only.
        self.theories_per_size = max(2, round(self.theories_per_size * min(1.0, scale / SCALE)))

    def build(self) -> None:
        import repro.core.inference  # noqa: F401  (set-up is the import)
        import repro.core.prover  # noqa: F401
        import repro.discovery  # noqa: F401

    def warmup(self) -> None:
        self.run_round(-1, Recorder(), {})

    def close(self) -> None:
        pass

    rounds_for = SqlWorkload.rounds_for
    trace_rounds_for = SqlWorkload.trace_rounds_for

    def texts(self, rounds: int) -> list:
        return [repr(self.instances())]  # every round presents the same

    def instances(self):
        """``(theories, proof tasks)``; a theory is ``(key, names, premises,
        goals)``.  The same for every round of one seed."""
        if self._instances is not None:
            return self._instances
        from repro.core.inference import ODTheory, is_trivial
        from repro.workloads.random_instances import random_od, random_od_set

        family = _rng(self.FAMILY, self.name)
        order = _rng(self.seed, self.name)
        theories = []
        for size in self.sizes:
            names = [chr(ord("A") + i) for i in range(size)]
            for k in range(self.theories_per_size):
                premises = random_od_set(names, size, 2, family)
                goals = [random_od(names, 2, family) for _ in range(self.goals)]
                order.shuffle(goals)
                theories.append((f"{size}:{k}", names, premises, goals))
        order.shuffle(theories)
        names = list("ABCD")
        tasks = []
        for _ in range(self.proofs):
            premises = random_od_set(names, 4, 2, family)
            theory = ODTheory(premises)
            for _ in range(40):  # a goal worth a proof: implied, not trivially
                goal = random_od(names, 2, family)
                if theory.implies(goal) and not is_trivial(goal):
                    break
            tasks.append((premises, goal))
        self._instances = theories, tasks
        return self._instances

    def run_round(self, r: int, rec: Recorder, refs: dict, trace=False, observe=None):
        from repro.core.inference import ODTheory
        from repro.core.proofs import ProofError, check_proof
        from repro.core.prover import prove
        from repro.core.satisfaction import satisfies_naive

        note = observe.span if observe is not None else (lambda *a: None)
        theories, tasks = self.instances()
        for key, names, premises, goals in theories:
            t0 = perf_counter()
            theory = ODTheory(premises)
            t1 = perf_counter()
            note("core.inference", "ODTheory", t0, t1, key)
            verdicts = []
            want = refs.get(key)
            for i, goal in enumerate(goals):
                t0 = perf_counter()
                verdict = theory.implies(goal)
                t1 = perf_counter()
                note("core.inference", "implies", t0, t1, key)
                verdicts.append(verdict)
                ok = want is None or want[i] == verdict
                rec.op(f"{key}:{i}", t1 - t0, ok, f"brute force says {not verdict}")
            for goal in goals:
                t0 = perf_counter()
                theory.implies(goal)
                t1 = perf_counter()
                note("core.inference", "implies-warm", t0, t1, key)
            for i, (goal, verdict) in enumerate(zip(goals, verdicts)):
                if verdict:
                    continue
                t0 = perf_counter()
                witness = theory.counterexample(goal)
                t1 = perf_counter()
                note("core.inference", "counterexample", t0, t1, key)
                # A refutation must show its work: premises hold, goal fails.
                # The instances repeat, so the first round checks them all.
                if r <= 0 and (
                    witness is None
                    or satisfies_naive(witness, goal)
                    or not all(satisfies_naive(witness, p) for p in premises)
                ):
                    rec.fail(f"{key}:{i}: bad counterexample")
            if observe is not None:
                observe.theory(theory.stats())
        # Proof search is heavy-tailed (median ~2 ms, p90 > 100 ms) and would
        # drown the decisions in the end-to-end numbers; it runs in the
        # per-layer pass only.
        for index, (premises, goal) in enumerate(tasks if observe is not None else ()):
            implied = ODTheory(premises).implies(goal)
            t0 = perf_counter()
            proof = prove(premises, goal, max_len=3, max_statements=2000)
            t1 = perf_counter()
            ok = True
            if proof is not None:
                try:
                    check_proof(proof)
                except ProofError:
                    ok = False
                ok = ok and implied  # soundness: a checked proof ⇒ M ⊨ θ
            t2 = perf_counter()
            note("core.prover", "prove", t0, t1, f"proof:{index}")
            note("core.proofs", "check_proof", t1, t2, f"proof:{index}")
            observe.proof(implied, proof, t2 - t0)
            rec.attempted += 1
            if not ok:
                rec.fail(f"proof:{index}: unsound proof")
        rec.end_cycle()

    def references(self, rounds: int) -> dict:
        """Oracle child: brute-force verdicts for every 8-attribute theory
        (the same in every round)."""
        def pair(od):
            return list(od.lhs), list(od.rhs)

        refs = {
            key: oracle.brute_force_verdicts(
                names, [pair(p) for p in premises], [pair(g) for g in goals]
            )
            for key, names, premises, goals in self.instances()[0]
            if len(names) <= 8
        }
        return {"refs": refs, "attempted": 0, "errors": []}

    def observer(self, log=None):
        import layers

        return layers.OdObserver(log)


WORKLOADS = {
    cls.name: cls
    for cls in (AdhocPlan, ReportBatch, ReportRow, ReportProcess, OdInference, CatalogChurn)
}
