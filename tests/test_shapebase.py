"""Unit tests for the ShapeBase."""

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.storage.persist import (apply_base_delta, encode_base,
                                   encode_base_delta, load_base, save_base)


class TestPopulation:
    def test_add_shape_returns_id(self, square):
        base = ShapeBase()
        assert base.add_shape(square) == 0
        assert base.add_shape(square.translated(5, 5)) == 1

    def test_explicit_ids(self, square):
        base = ShapeBase()
        assert base.add_shape(square, shape_id=10) == 10
        assert base.add_shape(square.translated(1, 1)) == 11

    def test_duplicate_id_rejected(self, square):
        base = ShapeBase()
        base.add_shape(square, shape_id=3)
        with pytest.raises(ValueError):
            base.add_shape(square, shape_id=3)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            ShapeBase(alpha=1.0)
        with pytest.raises(ValueError):
            ShapeBase(alpha=-0.5)

    def test_entries_doubled_per_pair(self, square):
        base = ShapeBase(alpha=0.0)
        base.add_shape(square)
        # Square has two diameters (both diagonals), two orders each.
        assert base.num_entries == 4

    def test_alpha_multiplies_entries(self, shape_factory):
        shape = shape_factory(14)
        tight = ShapeBase(alpha=0.0)
        tight.add_shape(shape)
        loose = ShapeBase(alpha=0.3)
        loose.add_shape(shape)
        assert loose.num_entries >= tight.num_entries

    def test_add_shapes_same_image(self, square, triangle):
        base = ShapeBase()
        ids = base.add_shapes([square, triangle], image_id=7)
        assert base.shapes_of_image(7) == ids
        assert base.num_images == 1


class TestStatistics:
    def test_counts(self, small_base):
        assert small_base.num_shapes == 30
        assert small_base.num_entries == len(small_base.entries)
        assert small_base.num_images == 10

    def test_total_vertices_matches_sum(self, small_base):
        """Indexed count excludes the two anchors of every copy."""
        expected = sum(e.shape.num_vertices - 2
                       for e in small_base.entries)
        assert small_base.total_vertices == expected

    def test_average_vertices(self, small_base):
        expected = small_base.total_vertices / small_base.num_entries
        assert small_base.average_vertices_per_entry == \
            pytest.approx(expected)

    def test_empty_base(self):
        base = ShapeBase()
        assert base.num_shapes == 0
        assert base.total_vertices == 0
        assert base.average_vertices_per_entry == 0.0


class TestLookup:
    def test_entries_of_shape(self, small_base):
        for shape_id in small_base.shape_ids():
            entry_ids = small_base.entries_of_shape(shape_id)
            assert entry_ids
            for entry_id in entry_ids:
                assert small_base.entry(entry_id).shape_id == shape_id

    def test_image_of_shape(self, small_base):
        for shape_id in small_base.shape_ids():
            image = small_base.image_of_shape(shape_id)
            assert shape_id in small_base.shapes_of_image(image)

    def test_entry_vertices_match(self, small_base):
        for entry in list(small_base)[:20]:
            slice_vertices = small_base.entry_vertices(entry.entry_id)
            assert np.allclose(slice_vertices, entry.shape.vertices)

    def test_vertex_owner_consistency(self, small_base):
        owner = small_base.vertex_owner
        sizes = small_base.entry_sizes
        counts = np.bincount(owner, minlength=small_base.num_entries)
        assert np.array_equal(counts, sizes)


class TestIndexLifecycle:
    def test_index_rebuilt_after_add(self, square):
        base = ShapeBase()
        base.add_shape(square)
        n1 = base.total_vertices
        index1 = base.index
        base.add_shape(square.translated(3, 3))
        assert base.total_vertices > n1
        assert base.index is not index1

    def test_index_reports_entry_vertices(self, small_base):
        index = small_base.index
        big = ((-100.0, -100.0), (100.0, -100.0), (0.0, 200.0))
        assert len(index.report_triangle(*big)) == small_base.total_vertices

    def test_backend_selection(self, square):
        base = ShapeBase(backend="rangetree")
        base.add_shape(square)
        from repro.rangesearch import LayeredRangeTreeIndex
        assert isinstance(base.index, LayeredRangeTreeIndex)

    def test_normalized_entries_have_unit_pairs(self, small_base):
        for entry in list(small_base)[:10]:
            i, j = entry.copy.pair
            v = entry.shape.vertices
            assert v[i] == pytest.approx((0, 0), abs=1e-9)
            assert v[j] == pytest.approx((1, 0), abs=1e-9)


def assert_anchor_arrays(base):
    """The anchor arrays a reader captures are the entries' own."""
    view = base.reader_view()
    anchor_at, anchor_points = view[5], view[6]
    assert anchor_at.tolist() == [list(e.copy.pair) for e in base]
    assert np.array_equal(anchor_points.reshape(-1, 2, 2), np.array(
        [e.shape.vertices[list(e.copy.pair)] for e in base]).reshape(
            -1, 2, 2))


class TestAnchorArrays:
    """Per-entry anchor positions and points follow every mutation."""

    def test_every_mutation_path(self, shape_factory, tmp_path):
        shapes = [shape_factory(int(n)) for n in (7, 9, 11, 8, 10, 12)]
        base = ShapeBase(alpha=0.1)
        base.add_shapes(shapes[:3], image_ids=[0, 0, 1])
        assert_anchor_arrays(base)
        prior = (base.num_shapes, base.num_entries)
        base.add_shape(shapes[3], image_id=2)        # incremental append
        assert base.index_delta_size > 0
        assert_anchor_arrays(base)
        clone = base.clone_cow()
        assert clone.reader_view()[6] is base.reader_view()[6]
        clone.remove_shape(1)
        assert_anchor_arrays(clone)
        assert_anchor_arrays(base)                   # the donor kept its
        base.add_shapes(shapes[4:], image_ids=[3, 3])
        assert_anchor_arrays(base.subset([0, 2, 4]))
        path = tmp_path / "base.gsb"
        save_base(base, path)
        for mmap in (False, True):
            assert_anchor_arrays(load_base(path, mmap=mmap))
        replica = base.subset(list(range(prior[0])))
        apply_base_delta(replica, encode_base_delta(base, *prior))
        assert_anchor_arrays(replica)
        base.remove_shape(4)
        assert_anchor_arrays(base)

    def test_an_empty_base_has_empty_anchor_arrays(self):
        base = ShapeBase()
        base.add_shape(Shape([(0, 0), (2, 0), (1, 1)]))
        base.remove_shape(0)
        assert base.num_entries == 0
        view = base.reader_view()
        assert view[5].shape == (0, 2) and view[6].shape == (0, 2, 2)


class TestBatchRemoval:
    """``remove_shapes`` compacts once and lands exactly where one
    ``remove_shape`` per id lands."""

    @staticmethod
    def state(base):
        entries = [(e.entry_id, e.shape_id, e.image_id, id(e.copy))
                   for e in base.entries]
        return (entries, base._entries_by_shape, base._shapes_by_image,
                base.reader_view()[1:], encode_base(base))

    def test_a_batch_equals_single_removals(self, small_base):
        encode_base(small_base, hash_curves=8)   # warm the signature rows
        small_base.index                         # and the flat arrays
        # 3, 13 and 23 are all of image 3; 17 is of image 7.  A
        # repeated id is removed once.
        for victims in ([3, 17], [13, 3, 23], [17, 3, 17]):
            batch, single = small_base.clone_cow(), small_base.clone_cow()
            batch.remove_shapes(victims)
            for shape_id in dict.fromkeys(victims):
                single.remove_shape(shape_id)
            (entries, by_shape, by_image, arrays, payload) = \
                self.state(batch)
            expected = self.state(single)
            assert (entries, by_shape, by_image) == expected[:3]
            for got, want in zip(arrays, expected[3]):
                assert np.array_equal(got, want)
            assert payload == expected[4]
            assert 3 not in by_shape

    def test_an_unknown_id_mutates_nothing(self, small_base):
        before = (small_base.version, small_base.num_shapes,
                  small_base.num_entries)
        with pytest.raises(KeyError):
            small_base.remove_shapes([3, 10 ** 9, 17])
        assert (small_base.version, small_base.num_shapes,
                small_base.num_entries) == before
        assert 3 in small_base.shapes and 17 in small_base.shapes
