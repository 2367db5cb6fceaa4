"""Workloads for Walton's skew taxonomy (Figure 6 of the paper).

The paper classifies the skews hitting the filter-join example:

* **AVS/TPS** — attribute-value / tuple-placement skew: uneven
  fragment cardinalities of the stored relations (what the Zipf
  databases of the main experiments model);
* **SS** — selectivity skew: the filter's selectivity varies per
  fragment, so instances emit very different tuple counts;
* **RS** — redistribution skew: the repartitioning hash concentrates
  the transmitted tuples on few consumer instances;
* **JPS** — join-product skew: the per-tuple match count varies, so
  some activations produce far more output.

Each builder returns a workload exhibiting exactly one of them, so the
taxonomy becomes an executable experiment: run the same filter-join
pipeline over each and compare per-instance activation statistics
(the ``taxonomy`` row of :data:`repro.bench.figures.FIGURES`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.workloads import skewed_fragments
from repro.lera.graph import LeraGraph
from repro.lera.plans import filter_join_plan
from repro.lera.predicates import Predicate
from repro.storage.catalog import Catalog, TableEntry
from repro.storage.fragment import Fragment
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.skew import zipf_cardinalities

#: Streamed relations carry (key, band): `band` marks which fragment
#: of R the tuple came from, letting SS predicates discriminate.
R_SCHEMA = Schema.of_ints("key", "band")

#: Cardinality of R and of S, and the degree both are partitioned to.
CARDINALITY = 4000
DEGREE = 16

#: Zipf theta of R's join keys over the hash buckets (RS).
RS_THETA = 1.0

#: Extra S tuples matching the one hot key (JPS).
JPS_HOT_MATCHES = 400


@dataclass(frozen=True)
class TaxonomyWorkload:
    """One skew-taxonomy scenario: a filter-join plan plus its label."""

    kind: str
    plan: LeraGraph
    entry_r: TableEntry
    entry_s: TableEntry


def _uniform_r(catalog: Catalog, cardinality: int, degree: int,
               keys_mod: int) -> TableEntry:
    """R with uniform fragments; key ranges over [0, keys_mod)."""
    fragments = []
    rows_all = []
    per_fragment = cardinality // degree
    for i in range(degree):
        rows = [((i + degree * j) % keys_mod, i)
                for j in range(per_fragment)]
        fragments.append(Fragment("R", i, R_SCHEMA, rows))
        rows_all.extend(rows)
    relation = Relation("R", R_SCHEMA, rows_all)
    # R is partitioned on `band` here (placement by construction).
    return catalog.register_fragments(
        relation, PartitioningSpec.on("band", degree), fragments)


def _stored_s(catalog: Catalog, cardinality: int, degree: int,
              theta: float = 0.0) -> TableEntry:
    """S partitioned on key, with Zipf-*theta* fragment cardinalities."""
    relation, fragments = skewed_fragments("S", cardinality, degree, theta)
    spec = PartitioningSpec.on("key", degree)
    return catalog.register_fragments(relation, spec, fragments)


def make_avs_workload() -> TaxonomyWorkload:
    """AVS/TPS: the *stored* operand S has Zipf-skewed fragments, so
    probing instance 0 costs far more than the rest."""
    catalog = Catalog()
    entry_s = _stored_s(catalog, CARDINALITY, DEGREE, theta=1.0)
    entry_r = _uniform_r(catalog, CARDINALITY, DEGREE, keys_mod=CARDINALITY)
    predicate = Predicate("true", lambda row: True, 1.0)
    plan = filter_join_plan(entry_r, entry_s, predicate, "key", "key")
    return TaxonomyWorkload("AVS/TPS", plan, entry_r, entry_s)


def make_ss_workload() -> TaxonomyWorkload:
    """SS: the filter keeps everything from low bands and nothing from
    high ones — per-instance selectivity varies from 1.0 to 0.0."""
    catalog = Catalog()
    entry_s = _stored_s(catalog, CARDINALITY, DEGREE, theta=0.0)
    entry_r = _uniform_r(catalog, CARDINALITY, DEGREE, keys_mod=CARDINALITY)
    threshold = DEGREE // 2
    predicate = Predicate(f"band < {threshold}",
                          lambda row, _t=threshold: row[1] < _t,
                          selectivity=0.5)
    plan = filter_join_plan(entry_r, entry_s, predicate, "key", "key")
    return TaxonomyWorkload("SS", plan, entry_r, entry_s)


def make_rs_workload() -> TaxonomyWorkload:
    """RS: R's join keys are Zipf-distributed over the hash buckets, so
    redistribution floods few join instances with most activations."""
    catalog = Catalog()
    entry_s = _stored_s(catalog, CARDINALITY, DEGREE, theta=0.0)
    # Build R whose keys concentrate on low buckets: bucket of key k is
    # k mod the degree, so draw keys with Zipf-weighted bucket residues.
    shares = zipf_cardinalities(CARDINALITY, DEGREE, RS_THETA)
    fragments = []
    rows_all = []
    per_fragment = CARDINALITY // DEGREE
    flat_keys = []
    for bucket, count in enumerate(shares):
        flat_keys.extend(bucket + DEGREE * j for j in range(count))
    for i in range(DEGREE):
        rows = [(flat_keys[(i * per_fragment + j) % len(flat_keys)], i)
                for j in range(per_fragment)]
        fragments.append(Fragment("R", i, R_SCHEMA, rows))
        rows_all.extend(rows)
    entry_r = catalog.register_fragments(
        Relation("R", R_SCHEMA, rows_all),
        PartitioningSpec.on("band", DEGREE), fragments)
    predicate = Predicate("true", lambda row: True, 1.0)
    plan = filter_join_plan(entry_r, entry_s, predicate, "key", "key")
    return TaxonomyWorkload("RS", plan, entry_r, entry_s)


def make_jps_workload() -> TaxonomyWorkload:
    """JPS: one hot S key matches :data:`JPS_HOT_MATCHES` tuples, so the probes
    hitting it emit disproportionate output."""
    catalog = Catalog()
    relation_s, fragments_s = skewed_fragments("S", CARDINALITY, DEGREE, 0.0)
    hot_key = fragments_s[0].rows[0][0]
    fragments_s[0].extend([(hot_key, -1)] * JPS_HOT_MATCHES)
    relation_s = Relation("S", relation_s.schema,
                          [row for f in fragments_s for row in f.rows])
    entry_s = catalog.register_fragments(
        relation_s, PartitioningSpec.on("key", DEGREE), fragments_s)
    entry_r = _uniform_r(catalog, CARDINALITY, DEGREE, keys_mod=CARDINALITY)
    predicate = Predicate("true", lambda row: True, 1.0)
    plan = filter_join_plan(entry_r, entry_s, predicate, "key", "key")
    return TaxonomyWorkload("JPS", plan, entry_r, entry_s)
