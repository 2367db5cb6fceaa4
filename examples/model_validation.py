"""Validating the analytical model against the engine.

Run:  python examples/model_validation.py

The paper's Section 4.1 analysis predicts execution-time bands from
three numbers per operator (activation count, mean cost, max cost).
This example sweeps thread counts and skews for both plan shapes and
prints the predicted [lower .. worst] band next to the measured
response — the same model-vs-measurement comparison Figures 12/13
make, but as a table you can re-run with your own parameters.
"""

from repro import (
    ExecutionOptions,
    Executor,
    Machine,
    QuerySchedule,
    assoc_join_plan,
    ideal_join_plan,
)
from repro.analysis.predictor import predict
from repro.bench.workloads import make_join_database

MACHINE = Machine.uniform(processors=16)
CARD_A, CARD_B, DEGREE = 20_000, 2_000, 50
SEEDS = (0, 1, 2)


def validate(label, plan, threads, strategy):
    schedule = QuerySchedule.for_plan(plan, threads, strategy=strategy)
    band = predict(plan, schedule, MACHINE)
    # Virtual time is deterministic per seed; the seeds vary Random's
    # draws, and the band must hold for each of them.
    measured = [Executor(MACHINE, ExecutionOptions(seed=seed))
                .execute(plan, schedule).response_time for seed in SEEDS]
    inside = all(band.lower_bound * 0.95 <= m <= band.worst_time * 1.10
                 for m in measured)
    print(f"  {label:<28} [{band.lower_bound:7.2f} .. {band.worst_time:7.2f}]"
          f"   measured {min(measured):7.2f} .. {max(measured):7.2f}"
          f"   {'inside' if inside else 'OUTSIDE'}")


def main() -> None:
    print(f"Predicted band vs measured response "
          f"(|A|={CARD_A}, |B'|={CARD_B}, degree={DEGREE})\n")
    for theta in (0.0, 1.0):
        database = make_join_database(CARD_A, CARD_B, DEGREE, theta)
        ideal = ideal_join_plan(database.entry_a, database.entry_b,
                                "key", "key")
        assoc = assoc_join_plan(database.entry_a, database.entry_b,
                                "key", "key")
        print(f"Zipf = {theta:g}:")
        for threads in (4, 10):
            validate(f"IdealJoin LPT, {threads} threads", ideal, threads,
                     "lpt")
            validate(f"IdealJoin Random, {threads} threads", ideal, threads,
                     "random")
            validate(f"AssocJoin, {threads} threads", assoc, threads,
                     "random")
        print()
    print("The skewed LPT IdealJoin sits on its band's lower edge: the")
    print("response is exactly start-up + Pmax, the longest activation —")
    print("equation (2)'s second phase with nothing left to overlap.")


if __name__ == "__main__":
    main()
