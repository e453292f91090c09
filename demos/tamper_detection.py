"""Show a malicious computation server being caught by the tag check.

The simulation harness runs two rounds; in round 1 the computation
server adds an offset to one coordinate of the published aggregate.
Every user's tag verification fails, an alarm is recorded, and round 2
proceeds cleanly with fresh masks.
"""

from vsecagg.harness import ADVERSARY_ACTIONS, AdversarySpec, RunConfig, run_simulation

cfg = RunConfig(users=4, dim=8, rounds=2, seed=21,
                adversary=AdversarySpec("cs", "tamper_aggregate", round_index=1))
report = run_simulation(cfg)

for rec in report.rounds:
    print(f"round {rec.round_index}: m={len(rec.participants)} "
          f"adversarial={rec.adversarial} detected={rec.detected} "
          f"verified={rec.verified} oracle_deviation={rec.oracle_deviation:.1e}")

alarm = report.alarms[0]
print(f"alarm from user {alarm.uid} for round {alarm.round_index} ({alarm.reason.name}): "
      f"expected tag {alarm.first} != recomputed tag {alarm.second}")
print(f"run exit_ok = {report.exit_ok}  (a detected adversary is a successful run)")

# The same detection holds for every modeled server action:
for action, attack in ADVERSARY_ACTIONS.items():
    cfg = RunConfig(users=4, dim=8, rounds=1, seed=22,
                    adversary=AdversarySpec(attack.server, action, round_index=1))
    rec = run_simulation(cfg).rounds[0]
    print(f"{attack.server}:{action:<20} detected={rec.detected}")
