"""LDBC SNB-lite: synthetic social-network data for the SNB-M workload.

Scaled-down substitute for the LDBC Social Network Benchmark datasets the
paper uses (SF10/SF30 are multi-hundred-million-tuple datasets; unavailable
offline). The generator preserves the structural properties the paper's
experiments depend on:

- relationship tables dwarf entity tables (knows ≈ 15× person, comment ≈ 20×
  person — the paper's LDBC30 has knows 41× person), so reverse semijoins
  matter;
- degree skew: low-RID persons have many knows/comments/posts, so the seeded
  person (public ``id`` 933, forced onto person RID 0) has a rich
  neighbourhood and the paper's point-seeded IC queries traverse real work;
- every constant in the Appendix A query texts (person 933, the two comment
  ids, tag 'Rumi', places 'India'/'China', tagclass 'Person', the date
  thresholds) exists and is selective.

All columns referenced by the 25 SNB-M queries are generated; everything is
deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.catalog import Catalog

PERSON_933 = 933
COMMENT_A = 4947802324993  # IS4/IS5/IS6 point comment
COMMENT_B = 8246337208329  # IS7 point comment

_FIRSTNAMES = ["Rahul", "Jan", "Wei", "Ali", "Otto", "Maria", "Jun", "Ivan", "Ana", "Ken"]
_LASTNAMES = ["Sharma", "Khan", "Chen", "Smith", "Garcia", "Yang", "Singh", "Kim"]
_PLACES = ["India", "China"] + [f"Country{i}" for i in range(2, 50)]
_BROWSERS = ["Chrome", "Firefox", "Safari", "Edge"]
_TS_LO, _TS_HI = 1_290_000_000, 1_550_000_000


def _skewed_idx(g: np.random.Generator, n_out: int, n_max: int, power: float = 1.6) -> np.ndarray:
    """Skewed index sample in [0, n_max): low indices are much more frequent.

    power 1.6 gives a heavy-tailed but bounded hub degree — strong enough that
    seeded traversals from person 933 (RID 0) do real join work, soft enough
    that hub-to-hub 2-hop neighbourhoods don't explode quadratically.
    """
    return np.minimum((g.random(n_out) ** power * n_max).astype(np.int64), n_max - 1)


def snb_tables(scale: float = 0.1, seed: int = 7) -> dict[str, pd.DataFrame]:
    g = np.random.default_rng(seed)
    n_person = max(40, int(20_000 * scale))
    n_place, n_tag, n_tagclass, n_org = 50, 150, 25, 80
    n_knows = n_person * 15
    n_forum = max(10, n_person // 2)
    n_post = n_person * 6
    n_comment = n_person * 20

    place = pd.DataFrame({"placeid": np.arange(n_place), "name": _PLACES[:n_place]})

    person_id = 1000 + np.arange(n_person, dtype=np.int64) * 13
    person_id[0] = PERSON_933
    person = pd.DataFrame(
        {
            "personid": np.arange(n_person, dtype=np.int64),
            "id": person_id,
            "firstname": g.choice(_FIRSTNAMES, n_person),
            "lastname": g.choice(_LASTNAMES, n_person),
            "birthday": g.integers(100_000_000, 900_000_000, n_person),
            "creationdate": g.integers(_TS_LO, _TS_HI, n_person),
            "gender": g.choice(["male", "female"], n_person),
            "browserused": g.choice(_BROWSERS, n_person),
            "locationip": [f"10.0.{i % 256}.{i % 100}" for i in range(n_person)],
            "placeid": g.integers(0, n_place, n_person),
        }
    )

    knows = pd.DataFrame(
        {
            "person1id": _skewed_idx(g, n_knows, n_person),
            "person2id": _skewed_idx(g, n_knows, n_person),
            "creationdate": g.integers(_TS_LO, _TS_HI, n_knows),
        }
    ).sort_values("person1id", kind="stable", ignore_index=True)

    forum = pd.DataFrame(
        {
            "forumid": np.arange(n_forum, dtype=np.int64),
            "title": [f"Forum {i}" for i in range(n_forum)],
            "moderatorid": _skewed_idx(g, n_forum, n_person),
        }
    )

    post = pd.DataFrame(
        {
            "id": np.arange(n_post, dtype=np.int64),
            "creatorid": _skewed_idx(g, n_post, n_person),
            "forumid": g.integers(0, n_forum, n_post),
            "creationdate": g.integers(_TS_LO, _TS_HI, n_post),
            "content": [f"post-{i}" for i in range(n_post)],
            "locationid": g.integers(0, n_place, n_post),
        }
    ).sort_values("creatorid", kind="stable", ignore_index=True)

    comment_id = 10_000 + np.arange(n_comment, dtype=np.int64) * 3
    comment_id[0], comment_id[1] = COMMENT_A, COMMENT_B
    parent_idx = _skewed_idx(g, n_comment, n_comment, power=3.0)
    comment = pd.DataFrame(
        {
            "id": comment_id,
            "creatorid": _skewed_idx(g, n_comment, n_person),
            "replyof_post": _skewed_idx(g, n_comment, n_post),
            "replyof_comment": comment_id[parent_idx],
            "creationdate": g.integers(_TS_LO, _TS_HI, n_comment),
            "content": [f"comment-{i}" for i in range(n_comment)],
            "locationid": g.integers(0, n_place, n_comment),
        }
    ).sort_values("creatorid", kind="stable", ignore_index=True)

    tagclass = pd.DataFrame(
        {
            "tagclassid": np.arange(n_tagclass, dtype=np.int64),
            "name": ["Person"] + [f"Class{i}" for i in range(1, n_tagclass)],
            "subclassoftagclassid": g.integers(0, n_tagclass, n_tagclass),
        }
    )
    tag = pd.DataFrame(
        {
            "tagid": np.arange(n_tag, dtype=np.int64),
            "name": ["Rumi"] + [f"Tag{i}" for i in range(1, n_tag)],
            "tagclassid": g.integers(0, n_tagclass, n_tag),
        }
    )
    post_tag = pd.DataFrame(
        {
            "messageid": _skewed_idx(g, n_post * 2, n_post),
            "tagid": _skewed_idx(g, n_post * 2, n_tag, power=3.0),
        }
    ).sort_values("messageid", kind="stable", ignore_index=True)

    organisation = pd.DataFrame(
        {
            "organisationid": np.arange(n_org, dtype=np.int64),
            "name": [f"Org{i}" for i in range(n_org)],
            "placeid": g.integers(0, n_place, n_org),
        }
    )
    person_company = pd.DataFrame(
        {
            "personid": _skewed_idx(g, int(n_person * 1.5), n_person),
            "organisationid": g.integers(0, n_org, int(n_person * 1.5)),
            "workfrom": g.integers(2005, 2021, int(n_person * 1.5)),
        }
    ).sort_values("personid", kind="stable", ignore_index=True)
    forum_person = pd.DataFrame(
        {
            "forumid": g.integers(0, n_forum, n_person * 8),
            "personid": _skewed_idx(g, n_person * 8, n_person),
            "joindate": g.integers(_TS_LO, 1_410_000_000, n_person * 8),
        }
    ).sort_values("personid", kind="stable", ignore_index=True)
    likes_comment = pd.DataFrame(
        {
            "personid": _skewed_idx(g, n_person * 15, n_person),
            "messageid": comment_id[_skewed_idx(g, n_person * 15, n_comment, power=3.0)],
            "creationdate": g.integers(_TS_LO, _TS_HI, n_person * 15),
        }
    ).sort_values("messageid", kind="stable", ignore_index=True)

    return {
        "place": place,
        "person": person,
        "knows": knows,
        "forum": forum,
        "post": post,
        "comment": comment,
        "tagclass": tagclass,
        "tag": tag,
        "post_tag": post_tag,
        "organisation": organisation,
        "person_company": person_company,
        "forum_person": forum_person,
        "likes_comment": likes_comment,
    }


def snb_catalog(
    spark: SparkSession,
    scale: float = 0.1,
    seed: int = 7,
    zone_size: int = 512,
) -> Catalog:
    """Register SNB-lite, predefine every FK join, and (like the paper: 'for
    every edge type ... we build a RID index') build forward+backward extended
    RID indices on every relationship table."""
    cat = Catalog(spark, zone_size=zone_size)
    for name, pdf in snb_tables(scale, seed).items():
        cat.register(name, pdf)

    cat.predefine_relationship(
        "knows", ["person1id"], "person", ["personid"], ["person2id"], "person",
        ["personid"]
    )
    cat.predefine_relationship(
        "forum_person", ["forumid"], "forum", ["forumid"], ["personid"], "person",
        ["personid"]
    )
    cat.predefine_relationship(
        "post_tag", ["messageid"], "post", ["id"], ["tagid"], "tag", ["tagid"]
    )
    cat.predefine_relationship(
        "likes_comment", ["personid"], "person", ["personid"], ["messageid"],
        "comment", ["id"]
    )
    cat.predefine_relationship(
        "person_company", ["personid"], "person", ["personid"], ["organisationid"],
        "organisation", ["organisationid"]
    )
    # Messages: comments/posts are edges in the graph view (creator, reply-of).
    cat.predefine_join("comment", ["creatorid"], "person", ["personid"])
    cat.predefine_join("comment", ["replyof_post"], "post", ["id"])
    cat.predefine_join("comment", ["replyof_comment"], "comment", ["id"])
    cat.predefine_join("comment", ["locationid"], "place", ["placeid"])
    cat.predefine_join("post", ["creatorid"], "person", ["personid"])
    cat.predefine_join("post", ["forumid"], "forum", ["forumid"])
    cat.predefine_join("post", ["locationid"], "place", ["placeid"])
    # One-to-many entity FKs.
    cat.predefine_join("person", ["placeid"], "place", ["placeid"])
    cat.predefine_join("forum", ["moderatorid"], "person", ["personid"])
    cat.predefine_join("organisation", ["placeid"], "place", ["placeid"])
    cat.predefine_join("tag", ["tagclassid"], "tagclass", ["tagclassid"])
    cat.predefine_join("tagclass", ["subclassoftagclassid"], "tagclass", ["tagclassid"])
    cat.build_rid_index("comment", ["creatorid"], extended_cols=["replyof_post"])
    cat.build_rid_index("comment", ["replyof_post"], extended_cols=["creatorid"])
    cat.build_rid_index("comment", ["replyof_comment"], extended_cols=["creatorid"])
    cat.build_rid_index("comment", ["locationid"])
    cat.build_rid_index("post", ["creatorid"], extended_cols=["forumid"])
    cat.build_rid_index("post", ["forumid"], extended_cols=["creatorid"])
    cat.build_rid_index("post", ["locationid"])
    cat.build_rid_index("person", ["placeid"])
    cat.build_rid_index("forum", ["moderatorid"])
    cat.build_rid_index("organisation", ["placeid"])
    cat.build_rid_index("tag", ["tagclassid"])
    cat.build_rid_index("tagclass", ["subclassoftagclassid"])
    cat.finalize()
    return cat
