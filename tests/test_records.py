"""Record semantics of the graph, group and cover types: equal fields give
equal objects with equal hashes, equality reads only the fields it always
read, and no field can be rebound."""

import json
from functools import lru_cache

import pytest

from gg_factory import _z2_gp
from covercalc.cli import main
from covercalc.gcover import (
    HurwitzSpaceId,
    Violation,
    boundary_intersection_H,
    pullback_psi_kappa_hurwitz,
)
from covercalc.graphs import (
    StableGraph,
    contract_edges,
    enumerate_generic_AB,
    enumerate_morphisms,
)
from covercalc.groups import (
    FiniteGroup,
    FrozenRecord,
    QuotientGroup,
    cyclic_group,
    left_cosets,
)


def _separating() -> StableGraph:
    return StableGraph((1, 1), (0, 1), (1, 0), ())


def _z4_halves():
    z4 = cyclic_group(4)
    return z4, z4.cyclic_subgroup((2, 3, 0, 1))


# Each factory builds its record from scratch, so two calls give equal but
# distinct objects.
FACTORIES = {
    "StableGraph": _separating,
    "GraphMorphism": lambda: enumerate_morphisms(_separating(), _separating())[0],
    "GenericABGraph": lambda: enumerate_generic_AB(_separating(), _separating())[0],
    "FiniteGroup": lambda: cyclic_group(4),
    "Cosets": lambda: left_cosets(*_z4_halves()),
    "QuotientGroup": lambda: QuotientGroup(*_z4_halves()),
    "HurwitzSpaceId": lambda: _z2_gp(1).space,
    "GAction": lambda: _z2_gp(1).action,
    "Violation": lambda: Violation("balancing", "edge (0,1) monodromies are not inverse"),
    "AdmissibleGGraph": lambda: _z2_gp(1),
    "HBoundaryTerm": lambda: boundary_intersection_H(_z2_gp(1), _z2_gp(1))[0],
    "PullbackFormula": lambda: pullback_psi_kappa_hurwitz({"kind": "restriction", "cls": "psi"}),
}
# A G-action holds its tables in dicts, so it and the G-graph holding it were
# never hashable.
UNHASHABLE = {"GAction", "AdmissibleGGraph", "HBoundaryTerm"}


def _fields(record) -> tuple[str, ...]:
    if isinstance(record, FrozenRecord):
        return type(record).__slots__
    return record._fields


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equal_fields_give_equal_records(name):
    first, second = FACTORIES[name](), FACTORIES[name]()
    assert type(first).__name__ == name
    assert first is not second and first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_no_field_can_be_rebound(name):
    record = FACTORIES[name]()
    fields = _fields(record)
    assert fields
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value


def test_derived_records_refuse_new_attributes_too():
    for record in (cyclic_group(2), QuotientGroup(*_z4_halves()), _z2_gp(1).space):
        with pytest.raises(AttributeError):
            record.note = 1


def test_a_group_compares_degree_generators_and_elements_not_position():
    a, b = cyclic_group(3), cyclic_group(3)
    object.__setattr__(b, "position", {})
    assert a == b and hash(a) == hash(b)
    assert FrozenRecord.__hash__(a) == hash((a.degree, a.generators, a.elements))
    # the same subgroup from other generators is another record
    c = FiniteGroup(3, tuple(reversed(a.elements)))
    assert c.elements == a.elements and c != a


def test_a_space_compares_its_datum_not_its_leg_layout():
    a, b = _z2_gp(1).space, _z2_gp(1).space
    for derived in ("cosets", "distinguished_positions", "canonical_leg_monodromy"):
        object.__setattr__(b, derived, ())
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.genus, a.group, a.xi, a.target_genus, a.n_source_marks))
    assert a != HurwitzSpaceId(2, a.group, a.xi * 3)


def test_records_of_another_class_are_not_equal():
    group = cyclic_group(2)
    assert group != (group.degree, group.generators, group.elements)
    assert _z2_gp(1).space != _z2_gp(1).space.group


def test_stable_graph_caches_survive_as_record_fields():
    graph = _separating()
    assert graph.edges() is graph.edges()
    assert graph.half_edges_at(0) == (0,)
    assert "_edges" in vars(graph) and "_incidence" in vars(graph)
    # a cache is not a field: equality and hashing ignore it
    assert graph == _separating() and hash(graph) == hash(_separating())


def test_stable_graph_is_an_lru_cache_key():
    @lru_cache(maxsize=None)
    def edges(graph: StableGraph) -> int:
        return graph.n_edges

    one, other = _separating(), _separating()
    assert edges(one) == edges(other) == 1
    info = edges.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    contracted, morphism = contract_edges(one, set(one.edges()))
    assert edges(contracted) == 0 and edges.cache_info().misses == 2
    assert morphism.source == other and morphism.target == contracted


def test_intersect_ggraph_refuses_graphs_of_two_spaces(tmp_path, capsys):
    paths = []
    for h in (1, 2):
        path = tmp_path / f"gp{h}.json"
        path.write_text(json.dumps(_z2_gp(h).to_json()))
        paths.append(str(path))
    code = main(["intersect-ggraph", "--a", paths[0], "--b", paths[1]])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "CoverError: boundary classes live on different spaces"
