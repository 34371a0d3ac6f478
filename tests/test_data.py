"""Dataset and metadata construction contracts."""

import numpy as np
import pytest

from boxprobe import CATEGORICAL, CONTINUOUS, Dataset, FeatureMeta
from boxprobe.errors import (
    InvalidArgumentError,
    InvalidLevelError,
    MissingTargetError,
    UnsupportedKindError,
)

from conftest import columns_dataset


def test_infers_kinds_from_values():
    data = columns_dataset(a=[1.0, 2.0], b=["x", "y"])
    assert data.meta[0].kind == CONTINUOUS
    assert data.meta[1].kind == CATEGORICAL
    assert data.meta[1].levels == ("x", "y")


def test_observed_range_filled_from_data():
    data = columns_dataset(a=[3.0, -1.0, 2.0])
    assert data.meta[0].observed_range == (-1.0, 3.0)


def test_rows_must_be_rectangular():
    with pytest.raises(InvalidArgumentError, match="row 1"):
        Dataset([[1.0, 2.0], [3.0]])


def test_empty_dataset_rejected():
    with pytest.raises(InvalidArgumentError):
        Dataset([])
    with pytest.raises(InvalidArgumentError):
        Dataset([[]])


def test_missing_values_rejected():
    with pytest.raises(InvalidArgumentError, match=r"^feature 'a' got the non-finite value nan; its values must be finite$"):
        columns_dataset(a=[1.0, float("nan")])
    with pytest.raises(InvalidArgumentError, match=r"^target got the non-finite value inf; its values must be finite$"):
        columns_dataset(a=[1.0, 2.0], target=[1.0, float("inf")])


@pytest.mark.parametrize("value", ["1.5", True, np.True_], ids=repr)
def test_construction_applies_the_value_rule(value):
    """A string or a bool in a continuous column is no number at construction either."""
    meta = [FeatureMeta("a", CONTINUOUS), FeatureMeta("b", CONTINUOUS)]
    with pytest.raises(UnsupportedKindError, match="feature 'a' is continuous; got non-numeric"):
        Dataset([[value, 2.0], [1.0, 3.0]], meta=meta)
    with pytest.raises(UnsupportedKindError, match="feature 'a' is continuous; got non-numeric"):
        Dataset.from_columns({"a": [1.0, value], "b": [2.0, 3.0]}, kinds={"a": CONTINUOUS})


def test_unregistered_level_rejected():
    meta = [FeatureMeta("c", CATEGORICAL, levels=("a", "b"))]
    with pytest.raises(InvalidLevelError, match="'c'"):
        Dataset([["a"], ["c"]], meta=meta)


def test_duplicate_feature_names_rejected():
    meta = [FeatureMeta("a", CONTINUOUS), FeatureMeta("a", CONTINUOUS)]
    with pytest.raises(InvalidArgumentError, match="unique"):
        Dataset([[1.0, 2.0]], meta=meta)


def test_one_schema_entry_per_column():
    with pytest.raises(InvalidArgumentError, match=r"^got 1 feature metadata entries for 2 columns$"):
        Dataset([[1.0, 2.0]], meta=[FeatureMeta("a", CONTINUOUS)])


def test_a_kind_override_names_a_column():
    with pytest.raises(InvalidArgumentError, match=r"^kind overrides for unknown columns: \['b'\]$"):
        Dataset.from_columns({"a": [1.0]}, kinds={"b": CONTINUOUS})


def test_target_length_checked():
    with pytest.raises(InvalidArgumentError, match="target"):
        columns_dataset(a=[1.0, 2.0], target=[1.0])


def test_meta_validation():
    with pytest.raises(InvalidArgumentError):
        FeatureMeta("a", "weird")
    with pytest.raises(InvalidArgumentError):
        FeatureMeta("a", CATEGORICAL, levels=())
    with pytest.raises(InvalidArgumentError):
        FeatureMeta("a", CATEGORICAL, levels=("x", "x"))
    with pytest.raises(InvalidArgumentError):
        FeatureMeta("a", CONTINUOUS, observed_range=(2.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        FeatureMeta("a", CONTINUOUS, levels=("x",))
    with pytest.raises(InvalidArgumentError, match=r"^categorical feature 'c' cannot carry an observed range$"):
        FeatureMeta("c", CATEGORICAL, levels=("x", "y"), observed_range=(0.0, 1.0))


@pytest.mark.parametrize("bad", [(1.0,), (1.0, 2.0, 3.0), 1.0], ids=["1-tuple", "3-tuple", "scalar"])
def test_an_observed_range_is_a_pair(bad):
    """Not a bare ValueError from unpacking, or a TypeError from iterating."""
    with pytest.raises(InvalidArgumentError, match=r"^observed range of 'a' must be a \(min, max\) pair, got "):
        FeatureMeta("a", CONTINUOUS, observed_range=bad)


def test_dataset_is_immutable():
    data = columns_dataset(a=[1.0, 2.0], target=[0.0, 1.0])
    with pytest.raises(AttributeError):
        data.target = None
    with pytest.raises(ValueError):
        data.column(0)[0] = 7.0
    with pytest.raises(ValueError):
        data.matrix()[0, 0] = 7.0
    with pytest.raises(ValueError):
        data.target[0] = 7.0


def test_feature_resolution_by_name_and_index():
    data = columns_dataset(a=[1.0], b=[2.0])
    assert data.feature_index("b") == 1
    assert data.feature_index(0) == 0
    with pytest.raises(InvalidArgumentError, match="unknown feature"):
        data.feature_index("zz")
    with pytest.raises(InvalidArgumentError, match="out of range"):
        data.feature_index(5)


def test_row_returns_plain_scalars():
    data = columns_dataset(a=[1.5, 2.5], c=["u", "v"])
    assert data.row(1) == (2.5, "v")
    with pytest.raises(InvalidArgumentError):
        data.row(2)


def test_mixed_matrix_uses_object_dtype():
    data = columns_dataset(a=[1.0], c=["u"])
    assert data.matrix().dtype == object
    assert columns_dataset(a=[1.0], b=[2.0]).matrix().dtype == np.float64


def test_check_vector_validates_levels_and_length():
    data = columns_dataset(a=[1.0], c=["u"])
    assert data.check_vector([2.0, "u"]) == (2.0, "u")
    with pytest.raises(InvalidLevelError):
        data.check_vector([2.0, "nope"])
    with pytest.raises(InvalidArgumentError):
        data.check_vector([2.0])


def test_from_columns_rejects_unequal_lengths():
    with pytest.raises(InvalidArgumentError, match="column 'b' has 2 values, expected 3"):
        Dataset.from_columns({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0]})
    with pytest.raises(InvalidArgumentError, match="column 'a' has 2 values, expected 3"):
        Dataset.from_columns({"a": ["u", "v"], "b": [4.0, 5.0, 6.0]})


def test_from_columns_needs_an_observation_and_a_feature():
    with pytest.raises(InvalidArgumentError, match="at least one observation"):
        Dataset.from_columns({"a": [], "b": []})
    with pytest.raises(InvalidArgumentError, match="at least one feature"):
        Dataset.from_columns({})


def test_constructors_leave_caller_arrays_alone():
    values = np.array([1.0, 2.0])
    data = Dataset.from_columns({"a": values})
    derived = data.replace_columns(([0], values[None, None]))
    assert values.flags.writeable
    values[0] = 7.0
    assert data.column(0).tolist() == derived.column(0).tolist() == [1.0, 2.0]


def test_one_frozen_code_matrix_stores_every_column():
    data = columns_dataset(a=[1.0, 2.0, 3.0], b=["x", "y", "x"])
    codes = data.codes()
    assert codes.flags.c_contiguous and not codes.flags.writeable
    assert np.shares_memory(data.column("a"), codes) and not data.column("a").flags.writeable
    derived = data.replace_columns(([0], [[[4.0, 5.0, 6.0]]]), row_subset=np.array([2, 0]))
    assert derived.codes().tolist() == [[6.0, 0.0], [4.0, 0.0]] and derived.target is None
    assert derived.codes().flags.c_contiguous and not derived.codes().flags.writeable
    assert codes.tolist() == [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]]


def test_replace_columns_rejects_a_column_of_the_wrong_length():
    data = columns_dataset(a=[1.0, 2.0, 3.0], b=[4.0, 5.0, 6.0])
    with pytest.raises(InvalidArgumentError, match="a copy of 1 values for 3 rows"):
        data.replace_columns(([0], [[[1.0]]]))


def test_replace_columns_takes_one_copy_of_a_plan_group():
    data = columns_dataset(a=[1.0, 2.0, 3.0], b=["x", "y", "x"])
    assert data.replace_columns((["b", "a"], [[1, 7.0]])).codes().tolist() == [[7.0, 1.0]] * 3
    with pytest.raises(InvalidArgumentError, match="takes one copy of a plan group, got 2"):
        data.replace_columns(([0], [[1.0], [2.0]]))
    with pytest.raises(InvalidArgumentError, match="a plan group is"):
        data.replace_columns({0: [1.0, 2.0, 3.0]})


@pytest.mark.parametrize("codes", [np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2, 3))], ids=lambda c: str(c.shape))
def test_check_codes_needs_one_code_per_feature(codes):
    data = columns_dataset(a=[1.0, 2.0, 3.0], b=[4.0, 5.0, 6.0])
    with pytest.raises(InvalidArgumentError) as raised:
        data.check_codes(([0], codes), 3)
    assert str(raised.value) == f"codes of shape {codes.shape} for 1 features"


def test_continuous_index_names_the_purpose():
    data = columns_dataset(a=[1.0, 2.0], b=["x", "y"])
    assert data.continuous_index("a", "a shift") == 0
    with pytest.raises(UnsupportedKindError, match="'b' is categorical, but a shift needs"):
        data.continuous_index(1, "a shift")
    with pytest.raises(InvalidArgumentError, match="unknown feature"):
        data.continuous_index("zz", "a shift")


def test_numeric_target_names_the_purpose():
    assert columns_dataset(a=[1.0, 2.0], target=[3, 4]).numeric_target("ICI").tolist() == [3.0, 4.0]
    with pytest.raises(MissingTargetError, match="ICI needs a dataset with targets"):
        columns_dataset(a=[1.0, 2.0]).numeric_target("ICI")
    with pytest.raises(InvalidArgumentError, match="ICI needs a numeric target"):
        columns_dataset(a=[1.0, 2.0], target=["p", "q"]).numeric_target("ICI")
