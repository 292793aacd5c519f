"""List-valued steps: the paper treats lists "analogous to sets" (§2.1).

Everything the set-occurrence machinery supports must also work when the
collection is a list: extension building, query parity, incremental
maintenance, and the nested-index baseline.
"""

import pytest

from repro.asr import ASRManager, Decomposition, Extension, build_extension
from repro.baselines import NestedAttributeIndex
from repro.gom import NULL, ObjectBase, PathExpression, Schema
from repro.gom.traversal import forward_rows, origins_reaching
from repro.query import BackwardQuery, QueryEvaluator


@pytest.fixture()
def playlist_world():
    schema = Schema()
    schema.define_tuple("Track", {"Title": "STRING"})
    schema.define_list("TrackLIST", "Track")
    schema.define_tuple("Playlist", {"Name": "STRING", "Tracks": "TrackLIST"})
    schema.validate()
    db = ObjectBase(schema)
    tracks = [db.new("Track", Title=f"T{i}") for i in range(6)]
    lists = [
        db.new_list("TrackLIST", [tracks[0], tracks[1], tracks[2]]),
        db.new_list("TrackLIST", [tracks[2], tracks[3]]),
        db.new_list("TrackLIST"),
    ]
    playlists = [
        db.new("Playlist", Name="morning", Tracks=lists[0]),
        db.new("Playlist", Name="evening", Tracks=lists[1]),
        db.new("Playlist", Name="empty", Tracks=lists[2]),
        db.new("Playlist", Name="unset"),
    ]
    path = PathExpression.parse(schema, "Playlist.Tracks.Title")
    return db, path, tracks, lists, playlists


class TestListExtensions:
    def test_path_shape(self, playlist_world):
        _db, path, *_ = playlist_world
        assert path.k == 1
        assert path.m == 3
        assert path.steps[0].collection_type == "TrackLIST"

    def test_full_extension_contents(self, playlist_world):
        db, path, tracks, lists, playlists = playlist_world
        full = build_extension(db, path, Extension.FULL)
        assert (playlists[0], lists[0], tracks[1], "T1") in full.rows
        # Empty-list rule mirrors the empty-set rule.
        assert (playlists[2], lists[2], NULL, NULL) in full.rows
        # Unset attribute: the playlist appears nowhere.
        assert not any(row[0] == playlists[3] for row in full.rows)

    def test_query_parity_all_designs(self, playlist_world):
        db, path, tracks, _lists, playlists = playlist_world
        manager = ASRManager(db)
        evaluator = QueryEvaluator(db)
        asrs = [
            manager.create(path, extension, dec)
            for extension in Extension
            for dec in (Decomposition.binary(path.m), Decomposition.none(path.m))
        ]
        query = BackwardQuery(path, 0, path.n, target="T2")
        oracle = origins_reaching(db, path, "T2")
        assert oracle == {playlists[0], playlists[1]}
        for asr in asrs:
            assert evaluator.evaluate_supported(query, asr).cells == oracle

    def test_maintenance_under_list_mutations(self, playlist_world):
        db, path, tracks, lists, playlists = playlist_world
        manager = ASRManager(db)
        for extension in Extension:
            manager.create(path, extension, Decomposition.binary(path.m))
        db.list_append(lists[2], tracks[5])  # empty list gains a member
        manager.check_consistency()
        db.list_append(lists[0], tracks[5])  # shared track across lists
        manager.check_consistency()
        db.set_attr(playlists[1], "Tracks", lists[0])  # list sharing
        manager.check_consistency()
        db.set_attr(tracks[5], "Title", "renamed")
        manager.check_consistency()
        db.delete(tracks[2])
        manager.check_consistency()

    def test_duplicate_list_entries_collapse_in_relations(self, playlist_world):
        db, path, tracks, lists, playlists = playlist_world
        db.list_append(lists[1], tracks[3])  # duplicate entry
        assert db.members(lists[1]).count(tracks[3]) == 2
        full = build_extension(db, path, Extension.FULL)
        matching = [
            row
            for row in full.rows
            if row[0] == playlists[1] and row[2] == tracks[3]
        ]
        assert len(matching) == 1  # relations are sets

    def test_nested_index_over_list_path(self, playlist_world):
        db, path, tracks, lists, playlists = playlist_world
        manager = ASRManager(db)
        index = NestedAttributeIndex.build(db, path)
        manager.register(index)
        assert index.lookup("T0") == {playlists[0]}
        db.list_append(lists[1], tracks[0])
        index.consistency_check(db)
        assert index.lookup("T0") == {playlists[0], playlists[1]}


class TestNullListMembers:
    """A NULL list member used to crash traversal (int vs str sort keys)."""

    @pytest.fixture()
    def robot_world(self):
        schema = Schema()
        schema.define_tuple("Part", {"Name": "STRING"})
        schema.define_list("PartLIST", "Part")
        schema.define_tuple("Robot", {"Parts": "PartLIST"})
        schema.validate()
        db = ObjectBase(schema)
        parts = [db.new("Part", Name=f"p{i}") for i in range(4)]
        part_list = db.new_list("PartLIST", [parts[0], NULL, parts[1]])
        robot = db.new("Robot", Parts=part_list)
        path = PathExpression.parse(schema, "Robot.Parts.Name")
        return db, path, parts, part_list, robot

    def test_forward_rows_cover_the_null_member(self, robot_world):
        db, path, parts, part_list, robot = robot_world
        assert forward_rows(db, path, 0, robot) == [
            (robot, part_list, parts[0], "p0"),
            (robot, part_list, parts[1], "p1"),
            (robot, part_list, NULL, NULL),
        ]

    def test_append_and_remove_keep_every_extension_consistent(self, robot_world):
        db, path, parts, part_list, robot = robot_world
        manager = ASRManager(db)
        for extension in Extension:
            manager.create(path, extension, Decomposition.binary(path.m))
        db.list_append(part_list, parts[2])
        manager.check_consistency()
        db.list_append(part_list, NULL)
        manager.check_consistency()
        db.delete(parts[0])  # drops its list membership
        manager.check_consistency()
        assert origins_reaching(db, path, "p2") == {robot}
