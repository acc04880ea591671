"""The result and argument records: repr, immutability, equality and hashing.

`Dimension`, `WeightVector`, `MaxReSolution`, `PatternMetrics`, `NodeSet`,
`TDesignReport` and `DiscreteMetrics` are plain classes on `errors._Record`.
Their reprs are the text the package has always printed, assigning to or
deleting an attribute raises AttributeError, equal values compare equal
(arrays by value), and a record that holds an array is unhashable.
"""

import pytest

import axibeam as ab
from axibeam.designs import MaxReSolution
from axibeam.errors import _Record
from axibeam.metrics import PatternMetrics
from axibeam.sampling import DiscreteMetrics, TDesignReport

D3 = ab.Dimension(3.0)

# each record built from literal values, with its repr
REPRS = [
    (lambda: ab.Dimension(2.5), "Dimension(d=2.5)"),
    (lambda: ab.Dimension(3), "Dimension(d=3.0)"),
    (lambda: ab.WeightVector(ab.Dimension(2.5), [1, 0.5, 0.25], "raw"),
     "WeightVector(dim=Dimension(d=2.5), a=array([1.  , 0.5 , 0.25]), "
     "normalization=<Normalization.RAW: 'raw'>)"),
    (lambda: ab.basic(2, D3),
     "WeightVector(dim=Dimension(d=3.0), a=array([1., 1., 1.]), "
     "normalization=<Normalization.A0_UNITY: 'a0'>)"),
    (lambda: MaxReSolution(ab.WeightVector(D3, [1.0, 0.5], "a0"), 0.5, 1),
     "MaxReSolution(weights=WeightVector(dim=Dimension(d=3.0), a=array([1. , 0.5]), "
     "normalization=<Normalization.A0_UNITY: 'a0'>), r_e_max=0.5, iterations=1)"),
    (lambda: PatternMetrics(p=1.0, e=0.5, q=3.0, r_v=None, r_e=0.25, fbr=13.0),
     "PatternMetrics(p=1.0, e=0.5, q=3.0, r_v=None, r_e=0.25, fbr=13.0)"),
    (lambda: ab.NodeSet(2, [[1.0, 0.0], [0.0, 1.0]], label="pair"),
     "NodeSet(dim=2, nodes=array([[1., 0.],\n       [0., 1.]]), label='pair')"),
    (lambda: ab.NodeSet(3.0, [[0.0, 0.0, 1.0]]),
     "NodeSet(dim=3, nodes=array([[0., 0., 1.]]), label='')"),
    (lambda: TDesignReport(2, 1e-3, (1e-3, 0.0), False),
     "TDesignReport(t_claimed=2, max_abs_error=0.001, per_degree_errors=(0.001, 0.0), "
     "passed=False)"),
    (lambda: ab.tdesign_check(ab.circle_nodes(4), 0),
     "TDesignReport(t_claimed=0, max_abs_error=0.0, per_degree_errors=(), passed=True)"),
    (lambda: DiscreteMetrics(p=1.0, e=0.5, r_v=0.5, r_e=0.75, r_v_misaim_rad=None,
                             r_e_misaim_rad=0.0),
     "DiscreteMetrics(p=1.0, e=0.5, r_v=0.5, r_e=0.75, r_v_misaim_rad=None, "
     "r_e_misaim_rad=0.0)"),
]


def _records():
    """One record of each kind, computed by the library."""
    weights = ab.WeightVector(ab.Dimension(2.0), [1.0, 0.5], "raw")
    ring = ab.circle_nodes(4)
    return [
        D3,
        ab.basic(3, D3),
        ab.max_re(3, D3),
        ab.compute_metrics(weights),
        ring,
        ab.tdesign_check(ring, 3),
        ab.discrete_metrics(weights, ring, [1.0, 0.0]),
    ]


def test_every_public_record_is_covered():
    public = {name for name in ab.__all__
              if isinstance(getattr(ab, name), type) and issubclass(getattr(ab, name), _Record)}
    assert {type(r).__name__ for r in _records()} == public
    assert {type(make()).__name__ for make, _ in REPRS} == public


@pytest.mark.parametrize("make, text", REPRS, ids=[text.partition("(")[0] + str(i)
                                                    for i, (_, text) in enumerate(REPRS)])
def test_record_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    for name in (*record._fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "new_attribute")


def test_records_compare_by_value():
    for make in (lambda: ab.basic(3, ab.Dimension(3.0)), lambda: ab.platonic("cube"),
                 lambda: ab.max_re(3, D3), lambda: ab.circle_nodes(5, 0.25),
                 lambda: ab.compute_metrics(ab.inphase(4, D3))):
        first, second = make(), make()
        assert first is not second
        assert first == second and not first != second
    vec = ab.WeightVector(D3, [1.0, 0.5], "raw")
    assert vec != ab.WeightVector(D3, [1.0, 0.25], "raw")
    assert vec != ab.WeightVector(D3, [1.0, 0.5, 0.0], "raw")
    assert vec != ab.WeightVector(D3, [1.0, 0.5], "a0")
    assert vec != ab.WeightVector(ab.Dimension(2.0), [1.0, 0.5], "raw")
    assert ab.platonic("cube") != ab.platonic("octahedron")
    assert ab.NodeSet(2, [[1.0, 0.0]], "a") != ab.NodeSet(2, [[1.0, 0.0]], "b")
    assert ab.Dimension(3) == D3 and ab.Dimension(3.5) != D3
    # a record never equals another kind, nor its own fields
    assert D3 != 3.0 and vec != vec.a.tolist()
    assert ab.compute_metrics(vec) != ab.compute_metrics(ab.WeightVector(D3, [1.0, 0.25], "raw"))


def test_records_holding_arrays_are_unhashable():
    for record in (ab.basic(3, D3), ab.max_re(3, D3), ab.platonic("cube")):
        assert type(record).__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
    assert hash(ab.Dimension(3)) == hash(D3)
    metrics = [ab.compute_metrics(ab.inphase(4, D3)) for _ in range(2)]
    assert hash(metrics[0]) == hash(metrics[1])
    report = ab.tdesign_check(ab.platonic("cube"), 3)
    assert hash(report) == hash(ab.tdesign_check(ab.platonic("cube"), 3))
