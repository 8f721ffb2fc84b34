"""Unit tests for the data tree (Definition 2.1)."""

import pytest

from repro.datamodel import DataTree, Vertex
from repro.errors import (
    DataModelError, DuplicateVertexError, UnknownVertexError,
)


def small_tree() -> DataTree:
    tree = DataTree("book")
    entry = tree.create_under(tree.root, "entry")
    entry.set_attribute("isbn", "111")
    tree.create_under(tree.root, "author").append("Serge")
    section = tree.create_under(tree.root, "section")
    section.set_attribute("sid", "s1")
    tree.create_under(section, "section").set_attribute("sid", "s2")
    return tree


class TestConstruction:
    def test_root_label(self):
        assert DataTree("book").root.label == "book"

    def test_create_is_detached(self):
        tree = DataTree("r")
        v = tree.create("x")
        assert v.parent is None
        assert v not in tree.vertices()

    def test_append_attaches(self):
        tree = DataTree("r")
        v = tree.create("x")
        tree.root.append(v)
        assert v.parent is tree.root
        assert v in tree.vertices()

    def test_append_string_child(self):
        tree = DataTree("r")
        tree.root.append("hello")
        assert tree.root.children == ("hello",)
        assert tree.root.text == "hello"

    def test_mixed_children_order_preserved(self):
        tree = DataTree("r")
        tree.root.append("a")
        v = tree.create_under(tree.root, "x")
        tree.root.append("b")
        assert tree.root.children == ("a", v, "b")

    def test_child_labels_word(self):
        tree = DataTree("r")
        tree.root.append("txt")
        tree.create_under(tree.root, "x")
        assert tree.root.child_labels == ("S", "x")

    def test_empty_label_rejected(self):
        tree = DataTree("r")
        with pytest.raises(TypeError):
            tree.create("")

    def test_bad_child_type_rejected(self):
        tree = DataTree("r")
        with pytest.raises(TypeError):
            tree.root.append(42)


class TestTreeInvariants:
    def test_double_parent_rejected(self):
        tree = DataTree("r")
        v = tree.create("x")
        tree.root.append(v)
        other = tree.create_under(tree.root, "y")
        with pytest.raises(DuplicateVertexError):
            other.append(v)

    def test_self_cycle_rejected(self):
        tree = DataTree("r")
        v = tree.create("x")
        with pytest.raises(DataModelError):
            v.append(v)

    def test_ancestor_cycle_rejected(self):
        tree = DataTree("r")
        a = tree.create("a")
        b = tree.create("b")
        a.append(b)
        with pytest.raises(DataModelError):
            b.append(a)

    def test_deep_ancestor_cycle_rejected(self):
        tree = DataTree("r")
        chain = [tree.root]
        for _ in range(50):
            chain.append(tree.create_under(chain[-1], "x"))
        middle = chain[25].detach()
        with pytest.raises(DataModelError):
            chain[40].append(middle)
        chain[10].append(middle)
        tree.check_invariants()

    def test_fresh_leaf_appends_under_deep_vertex(self):
        tree = DataTree("r")
        vertex = tree.root
        for _ in range(5000):
            vertex = tree.create_under(vertex, "x")
        assert vertex.depth == 5000
        tree.check_invariants()

    def test_cross_tree_adoption_rejected(self):
        t1, t2 = DataTree("r"), DataTree("r")
        foreign = t2.create("x")
        with pytest.raises(DataModelError):
            t1.root.append(foreign)

    def test_check_invariants_passes(self):
        small_tree().check_invariants()


class TestAttributes:
    def test_single_value_is_singleton_set(self):
        tree = DataTree("r")
        tree.root.set_attribute("a", "v")
        assert tree.root.attr("a") == frozenset({"v"})
        assert tree.root.single("a") == "v"

    def test_set_value(self):
        tree = DataTree("r")
        tree.root.set_attribute("a", ["x", "y"])
        assert tree.root.attr("a") == frozenset({"x", "y"})

    def test_string_not_exploded_to_chars(self):
        tree = DataTree("r")
        tree.root.set_attribute("a", "abc")
        assert tree.root.attr("a") == frozenset({"abc"})

    def test_single_on_multivalue_raises(self):
        tree = DataTree("r")
        tree.root.set_attribute("a", ["x", "y"])
        with pytest.raises(DataModelError):
            tree.root.single("a")

    def test_missing_attr_raises_keyerror(self):
        tree = DataTree("r")
        with pytest.raises(KeyError):
            tree.root.attr("nope")

    def test_attr_or_empty(self):
        tree = DataTree("r")
        assert tree.root.attr_or_empty("nope") == frozenset()

    def test_del_attribute(self):
        tree = DataTree("r")
        tree.root.set_attribute("a", "v")
        tree.root.del_attribute("a")
        assert not tree.root.has_attribute("a")
        tree.root.del_attribute("a")  # idempotent

    def test_attr_tuple(self):
        tree = DataTree("r")
        tree.root.set_attribute("a", "1")
        tree.root.set_attribute("b", "2")
        assert tree.root.attr_tuple(("b", "a")) == ("2", "1")

    def test_non_string_values_rejected(self):
        tree = DataTree("r")
        with pytest.raises(TypeError):
            tree.root.set_attribute("a", [1, 2])

    def test_attribute_epoch_bumps(self):
        tree = DataTree("r")
        before = tree.attribute_epoch
        tree.root.set_attribute("a", "v")
        assert tree.attribute_epoch == before + 1


class TestNavigation:
    def test_ext(self):
        tree = small_tree()
        assert [v.label for v in tree.ext("section")] == \
            ["section", "section"]
        assert len(tree.ext("book")) == 1
        assert tree.ext("missing") == []

    def test_ext_values(self):
        tree = small_tree()
        assert tree.ext_values("section", "sid") == {"s1", "s2"}
        assert tree.ext_values("entry", "isbn") == {"111"}

    def test_descendants_preorder(self):
        tree = small_tree()
        labels = [v.label for v in tree.root.descendants()]
        assert labels == ["entry", "author", "section", "section"]

    def test_subtree_includes_self(self):
        tree = small_tree()
        assert next(iter(tree.root.subtree())) is tree.root

    def test_children_labeled(self):
        tree = small_tree()
        assert len(tree.root.children_labeled("section")) == 1
        assert tree.root.first_child_labeled("entry").label == "entry"
        assert tree.root.first_child_labeled("zzz") is None

    def test_depth_and_path_from_root(self):
        tree = small_tree()
        inner = tree.ext("section")[1]
        assert inner.depth == 2
        assert [v.label for v in inner.path_from_root()] == \
            ["book", "section", "section"]

    def test_labels_and_size(self):
        tree = small_tree()
        assert tree.labels() == {"book", "entry", "author", "section"}
        assert tree.size() == 5

    def test_find_by_vid(self):
        tree = small_tree()
        entry = tree.ext("entry")[0]
        assert tree.find(entry.vid) is entry
        with pytest.raises(UnknownVertexError):
            tree.find(9999)


class TestMutation:
    def test_remove_child_vertex(self):
        tree = small_tree()
        entry = tree.ext("entry")[0]
        tree.root.remove_child(entry)
        assert entry.parent is None
        assert entry not in tree.vertices()
        # The detached subtree can be re-appended elsewhere.
        section = tree.ext("section")[0]
        section.append(entry)
        assert entry.parent is section

    def test_remove_string_child(self):
        tree = DataTree("r")
        tree.root.append("a")
        tree.root.append("b")
        tree.root.remove_child("a")
        assert tree.root.children == ("b",)

    def test_remove_missing_child_raises(self):
        tree = small_tree()
        stranger = tree.create("x")
        with pytest.raises(DataModelError):
            tree.root.remove_child(stranger)

    def test_detach(self):
        tree = small_tree()
        section = tree.ext("section")[0]
        inner = section.children_labeled("section")[0]
        detached = inner.detach()
        assert detached is inner
        assert inner.parent is None
        assert tree.ext("section") == [section]

    def test_detach_root_raises(self):
        tree = small_tree()
        with pytest.raises(DataModelError):
            tree.root.detach()

    def test_replace_child(self):
        tree = small_tree()
        entry = tree.ext("entry")[0]
        substitute = tree.create("entry")
        position = tree.root.children.index(entry)
        tree.root.replace_child(entry, substitute)
        assert tree.root.children[position] is substitute
        assert entry.parent is None
        assert substitute.parent is tree.root

    def test_replace_missing_raises(self):
        tree = small_tree()
        with pytest.raises(DataModelError):
            tree.root.replace_child(tree.create("x"), tree.create("y"))

    def test_invariants_after_mutations(self):
        tree = small_tree()
        entry = tree.ext("entry")[0]
        tree.root.remove_child(entry)
        tree.ext("section")[0].append(entry)
        tree.check_invariants()
