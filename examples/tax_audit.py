"""Example 5: the Taxes table — ODs from real-world monotonicity.

Progressive taxation means brackets and payable amounts rise with income.
Declared as OD check constraints, these let an ``ORDER BY bracket,
payable`` ride the clustered income index with no sort — and the engine
*enforces* the constraints, rejecting data that would break the
optimization.

Run:  python examples/tax_audit.py
"""
from repro.core.dependency import od
from repro.engine.database import Database
from repro.engine.logical import bind
from repro.engine.sql.parser import parse
from repro.engine.table import ConstraintViolation
from repro.optimizer.planner import Planner
from repro.workloads.taxes import build_taxes


def main() -> None:
    db = Database()
    taxes = build_taxes(db, rows=20_000)
    print(f"loaded {len(taxes)} taxpayers; declared constraints:")
    for statement in taxes.constraints:
        print("  ", statement)

    # ------------------------------------------------------------------
    # The Example 5 query: order by bracket, then payable.
    # ------------------------------------------------------------------
    sql = "SELECT taxpayer_id, income, bracket, payable FROM taxes ORDER BY bracket, payable"
    print("\nquery:", sql)
    for mode in ("fd", "od"):
        plan = Planner(db, mode=mode).plan(bind(parse(sql)))
        rows, metrics = plan.run()
        label = "FD-only" if mode == "fd" else "OD-aware"
        print(f"\n[{label}] plan:")
        print(plan.explain())
        print(f"sorts={metrics.get('sorts')}  work={metrics.work:,.0f}")

    # ------------------------------------------------------------------
    # Audit: the constraints are live.  A row violating monotonicity (a
    # higher income in a lower bracket) is rejected with a witness.
    # ------------------------------------------------------------------
    print("\nattempting to load an inconsistent row (income 999999, bracket 1)...")
    try:
        taxes.load([(99_999, 999_999, 1, 0.10, 10.0)])
    except ConstraintViolation as violation:
        print("rejected:", violation)

    # a rejected load is undone: the table is as consistent as before
    taxes.check_constraints()
    print("table still consistent ✓")

    # ------------------------------------------------------------------
    # Where did the ODs come from?  They are *discoverable* from the data.
    # ------------------------------------------------------------------
    from repro.discovery import discover_ods

    sample = taxes.as_relation().subrelation(taxes.rows[:500])
    result = discover_ods(sample, max_lhs=1, max_fd_lhs=1)
    print(f"\ndiscovery over a 500-row sample: {result.summary()}")
    for wanted in (od("income", "bracket"), od("income", "payable")):
        print(f"  recovered {wanted}:", wanted in result.ods)


if __name__ == "__main__":
    main()
