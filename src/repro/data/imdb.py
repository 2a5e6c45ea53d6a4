"""IMDB/JOB-lite: synthetic movie data for the Join Order Benchmark workload.

Substitute for the real IMDB snapshot (2.5M titles; unavailable offline). The
schema keeps JOB's 10 most-used tables and its structural features:

- many-to-many link tables (movie_companies, movie_keyword, cast_info,
  movie_info) that are 3–8× larger than the entity tables they connect;
- skewed FK distributions (popular movies/companies/keywords);
- small dimension tables (info_type, company_type, kind_type) and
  highly-selective predicates (a rare keyword, a country code, a rating
  band) — the "selective predicate on an entity table reached through a
  many-to-many join" pattern that drives GRainDB's JOB speedups.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.catalog import Catalog

_COUNTRIES = ["[us]", "[de]", "[gb]", "[fr]", "[jp]", "[in]", "[it]", "[nl]", "[se]", "[pl]"]
_COUNTRY_P = [0.45, 0.08, 0.12, 0.07, 0.07, 0.06, 0.05, 0.04, 0.03, 0.03]
_GENRES = ["Drama", "Comedy", "Action", "Thriller", "Horror", "Documentary", "Romance", "Sci-Fi"]
_KINDS = ["movie", "tv series", "tv movie", "video movie", "tv mini series", "video game", "episode"]
_INFO_NAMES = [
    "genres", "countries", "languages", "budget", "runtimes", "rating", "votes",
    "release dates", "color info", "sound mix", "certificates", "locations",
    "production process", "tech info", "keywords", "camera", "laboratory",
    "top 250 rank", "bottom 10 rank", "mpaa",
]
_SPECIAL_KW = ["sequel", "character-name-in-title", "marvel-cinematic-universe",
               "based-on-novel", "female-nudity", "murder"]


def _skewed_idx(g: np.random.Generator, n_out: int, n_max: int, power: float = 2.0) -> np.ndarray:
    return np.minimum((g.random(n_out) ** power * n_max).astype(np.int64), n_max - 1)


def imdb_tables(scale: float = 0.1, seed: int = 11) -> dict[str, pd.DataFrame]:
    g = np.random.default_rng(seed)
    n_title = max(300, int(300_000 * scale))
    n_company = max(40, n_title // 8)
    n_keyword = max(60, n_title // 3)
    n_name = max(100, n_title)

    kind_type = pd.DataFrame({"id": np.arange(1, 8, dtype=np.int64), "kind": _KINDS})
    title = pd.DataFrame(
        {
            "id": np.arange(n_title, dtype=np.int64),
            "title": [f"Movie {i}" for i in range(n_title)],
            "kind_id": g.choice(np.arange(1, 8), n_title, p=[0.5, 0.2, 0.1, 0.08, 0.05, 0.04, 0.03]),
            "production_year": 1950 + np.minimum(
                (g.random(n_title) ** 0.5 * 65).astype(np.int64), 64
            ),
        }
    )
    company_type = pd.DataFrame(
        {
            "id": np.arange(1, 5, dtype=np.int64),
            "kind": ["production companies", "distributors", "special effects companies",
                     "miscellaneous companies"],
        }
    )
    company_name = pd.DataFrame(
        {
            "id": np.arange(n_company, dtype=np.int64),
            "name": [f"Studio {i}" for i in range(n_company)],
            "country_code": g.choice(_COUNTRIES, n_company, p=_COUNTRY_P),
        }
    )
    movie_companies = pd.DataFrame(
        {
            "movie_id": _skewed_idx(g, n_title * 4, n_title),
            "company_id": _skewed_idx(g, n_title * 4, n_company, power=3.0),
            "company_type_id": g.choice(np.arange(1, 5), n_title * 4, p=[0.55, 0.35, 0.05, 0.05]),
            "note": g.choice(
                ["(co-production)", "(presents)", "(as Metro)", "(VHS)", "(USA)", "(worldwide)"],
                n_title * 4,
            ),
        }
    ).sort_values("movie_id", kind="stable", ignore_index=True)
    # Link tables are clustered by movie_id, as the real IMDB dump files are —
    # this is what makes zone skipping effective for movie-side semijoins.
    info_type = pd.DataFrame(
        {"id": np.arange(1, len(_INFO_NAMES) + 1, dtype=np.int64), "info": _INFO_NAMES}
    )
    movie_info = pd.DataFrame(
        {
            "movie_id": _skewed_idx(g, n_title * 6, n_title),
            "info_type_id": g.integers(1, len(_INFO_NAMES) + 1, n_title * 6),
            "info": g.choice(_GENRES + ["USA", "Germany", "Sweden", "English", "German"],
                             n_title * 6),
        }
    ).sort_values("movie_id", kind="stable", ignore_index=True)
    movie_info_idx = pd.DataFrame(
        {
            "movie_id": _skewed_idx(g, n_title * 2, n_title),
            "info_type_id": g.choice([6, 7], n_title * 2),  # rating / votes
            "info": np.char.mod("%.1f", g.random(n_title * 2) * 9 + 1),
        }
    ).sort_values("movie_id", kind="stable", ignore_index=True)
    keyword = pd.DataFrame(
        {
            "id": np.arange(n_keyword, dtype=np.int64),
            "keyword": _SPECIAL_KW + [f"kw-{i}" for i in range(len(_SPECIAL_KW), n_keyword)],
        }
    )
    movie_keyword = pd.DataFrame(
        {
            "movie_id": _skewed_idx(g, n_title * 3, n_title),
            "keyword_id": _skewed_idx(g, n_title * 3, n_keyword, power=4.0),
        }
    ).sort_values("movie_id", kind="stable", ignore_index=True)
    name = pd.DataFrame(
        {
            "id": np.arange(n_name, dtype=np.int64),
            "name": [f"Actor {i}" for i in range(n_name)],
            "gender": g.choice(["m", "f", ""], n_name, p=[0.6, 0.35, 0.05]),
        }
    )
    cast_info = pd.DataFrame(
        {
            "movie_id": _skewed_idx(g, n_title * 8, n_title),
            "person_id": _skewed_idx(g, n_title * 8, n_name, power=3.0),
            "role_id": g.integers(1, 12, n_title * 8),
            "note": g.choice(["(producer)", "(writer)", "(voice)", "(uncredited)", ""],
                             n_title * 8, p=[0.1, 0.1, 0.1, 0.2, 0.5]),
        }
    ).sort_values("movie_id", kind="stable", ignore_index=True)
    return {
        "kind_type": kind_type,
        "title": title,
        "company_type": company_type,
        "company_name": company_name,
        "movie_companies": movie_companies,
        "info_type": info_type,
        "movie_info": movie_info,
        "movie_info_idx": movie_info_idx,
        "keyword": keyword,
        "movie_keyword": movie_keyword,
        "name": name,
        "cast_info": cast_info,
    }


def imdb_catalog(
    spark: SparkSession,
    scale: float = 0.1,
    seed: int = 11,
    zone_size: int = 1024,
) -> Catalog:
    """Predefine every PK-FK join (as the paper does for JOB) and build RID
    indices on the many-to-many relationship tables."""
    cat = Catalog(spark, zone_size=zone_size)
    for nm, pdf in imdb_tables(scale, seed).items():
        cat.register(nm, pdf)
    cat.predefine_relationship(
        "movie_companies", ["movie_id"], "title", ["id"], ["company_id"],
        "company_name", ["id"]
    )
    cat.predefine_relationship(
        "movie_keyword", ["movie_id"], "title", ["id"], ["keyword_id"],
        "keyword", ["id"]
    )
    cat.predefine_relationship(
        "cast_info", ["movie_id"], "title", ["id"], ["person_id"], "name", ["id"]
    )
    cat.predefine_relationship(
        "movie_info", ["movie_id"], "title", ["id"], ["info_type_id"],
        "info_type", ["id"]
    )
    cat.predefine_relationship(
        "movie_info_idx", ["movie_id"], "title", ["id"], ["info_type_id"],
        "info_type", ["id"]
    )
    cat.predefine_join("movie_companies", ["company_type_id"], "company_type", ["id"])
    cat.predefine_join("title", ["kind_id"], "kind_type", ["id"])
    cat.build_rid_index("movie_companies", ["company_type_id"])
    cat.build_rid_index("title", ["kind_id"])
    cat.finalize()
    return cat
