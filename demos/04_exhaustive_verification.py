# Universes with up to 4 elements are small enough to enumerate every
# covering and machine-check every structural law on all of them in well
# under a second; 5 elements take minutes (see "Limits" in the README).
# Run with:  python3 demos/04_exhaustive_verification.py

from covrough import census, enumerate_coverings, summary_to_dict, verify_laws

# How many coverings are there?  1, 5, 109, 32297 for 1..4 elements.
for n in (1, 2, 3):
    print(f"n={n}: {sum(1 for _ in enumerate_coverings(n))} coverings")

# The census classifies each covering.  Fixed points of the neighborhoods
# operator strictly outnumber partitions: equality with the neighborhoods
# does not force disjoint blocks.
rows = list(census(3))
partitions = [r for r in rows if r.is_partition]
fixed = [r for r in rows if r.is_cov_fixed_point]
print(f"\nn=3: {len(partitions)} partitions, {len(fixed)} fixed points")
print("a fixed point that is not a partition:")
for r in rows:
    if r.is_cov_fixed_point and not r.is_partition:
        print("  ", r.covering)
        break

# verify_laws re-derives every law (neighborhood nesting, pair degrees
# counted two ways, core-block uniqueness and minimality, reducibility
# interactions, the invariability characterizations, idempotence of the
# neighborhoods operator, ...) and reports violations.  No law depends on
# the names of the elements, so it checks one covering per relabelling
# orbit (34 of them at n=3) and counts each once per covering in its orbit.
summary = verify_laws(3)
print("\nn=3 verification:", summary_to_dict(summary))
assert not summary.violations

# n=4 checks 32297 coverings as 1952 orbits, in well under a second.
# verify_laws(5) checks 2147321017 coverings as 18664632 orbits, which
# takes minutes; it logs its progress about every 10 s to the
# "covrough.oracle" logger, shown after
# logging.basicConfig(level=logging.INFO).
summary = verify_laws(4)
print(
    f"n=4 verification: {summary.total_coverings} coverings, "
    f"{len(summary.violations)} violations, "
    f"{summary.invariable} invariable"
)
