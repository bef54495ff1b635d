"""Multi-modal data-lake catalog (Figure 1: structured / semi-structured /
unstructured assets).

A :class:`DataLake` holds three modality families over one entity world:

* **structured** — typed :class:`~repro.data.table.Table` relations;
* **semi-structured** — JSON records with nested key paths;
* **unstructured** — text :class:`~repro.data.documents.Document`.

Every asset carries a *literal description* — the observation AOP [59]
builds on: tables have schemas with named attributes, JSON has key paths,
documents have textual content — which the schema linker embeds into one
space.

:meth:`DataLake.from_world` splits entity types across modalities, so a
query like "average price of products made by companies in Avaria" *must*
cross modalities to be answered, exercising linking and planning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..data.documents import Document, DocumentRenderer
from ..data.table import Column, Schema, Table
from ..data.world import Entity, World
from ..errors import ConfigError, SchemaError

MODALITIES = ("table", "json", "document", "image")


@dataclass
class LakeAsset:
    """One catalogued asset with its literal description."""

    asset_id: str
    modality: str  # "table" | "json" | "document"
    name: str
    description: str
    table: Optional[Table] = None
    records: List[Dict[str, object]] = field(default_factory=list)
    documents: List[Document] = field(default_factory=list)
    images: List[object] = field(default_factory=list)  # List[SimImage]
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")


def _entities_to_table(name: str, entities: Sequence[Entity]) -> Table:
    """Render entities as a typed relation (numeric columns detected)."""
    if not entities:
        raise ConfigError(f"cannot build table {name!r} from zero entities")
    attr_names = sorted(entities[0].attributes)
    columns = [Column("name", "str")]
    for attr in attr_names:
        sample = entities[0].attributes[attr]
        dtype = "int" if sample.lstrip("-").isdigit() else "str"
        columns.append(Column(attr, dtype))
    rows = [{"name": entity.name, **entity.attributes} for entity in entities]
    return Table(name, Schema(tuple(columns)), rows)


def _entities_to_json(entities: Sequence[Entity]) -> List[Dict[str, object]]:
    """Render entities as nested JSON records (semi-structured modality)."""
    records = []
    for entity in entities:
        records.append(
            {
                "id": entity.uid,
                "name": entity.name,
                "type": entity.etype,
                "properties": dict(entity.attributes),
            }
        )
    return records


def _json_dtype(key: str, rows: Sequence[Dict[str, object]]) -> str:
    """``int`` when the first row's value is digits and every row's value
    converts to int (or is missing); ``str`` otherwise."""
    if not str(rows[0][key]).lstrip("-").isdigit():
        return "str"
    column = Column(key, "int")
    try:
        for row in rows:
            column.coerce(row.get(key))
    except SchemaError:
        return "str"
    return "int"


def _leaves(record: Dict[str, object], prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Yield ``(key path, value)`` for every non-dict leaf of a nested record."""
    for key, value in record.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            yield from _leaves(value, path)
        else:
            yield path, value


def _flatten(record: Dict[str, object]) -> Dict[str, object]:
    """One JSON record as a flat row keyed by leaf name.

    Two key paths ending in the same leaf name would share one column, so
    the collision raises instead of keeping whichever value came last.
    """
    flat: Dict[str, object] = {}
    paths: Dict[str, str] = {}
    for path, value in _leaves(record):
        column = path.rsplit(".", 1)[-1]
        if column in paths:
            raise ConfigError(
                f"key paths {paths[column]!r} and {path!r} both flatten to "
                f"column {column!r}"
            )
        paths[column] = path
        flat[column] = value
    return flat


class DataLake:
    """Catalog of multi-modal assets over one world.

    A JSON asset is flattened into a relation once, on its first scan, and
    every later :meth:`json_as_table` returns that same shared relation —
    the contract table assets already have. Assets are never re-registered,
    so the stored relations need no invalidation.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self._assets: Dict[str, LakeAsset] = {}
        self._json_tables: Dict[str, Table] = {}

    # ------------------------------------------------------------- building
    @classmethod
    def from_world(
        cls,
        world: World,
        *,
        modality_by_type: Optional[Dict[str, str]] = None,
        seed: int = 17,
    ) -> "DataLake":
        """Build the default lake: each entity type lands in one modality.

        Default split: companies and cities as tables, products as JSON,
        people as documents — chosen so the natural join chains
        (product.maker -> company.headquarters -> city.country and
        person.employer -> company) all cross modality boundaries.
        """
        split = modality_by_type or {
            "company": "table",
            "city": "table",
            "product": "json",
            "person": "document",
        }
        lake = cls(world)
        for etype, modality in sorted(split.items()):
            entities = world.entities_of_type(etype)
            if not entities:
                continue
            plural = etype + "s" if not etype.endswith("y") else etype[:-1] + "ies"
            if modality == "table":
                table = _entities_to_table(plural, entities)
                lake.add_table(table, description_extra=f"{etype} master data")
            elif modality == "json":
                records = _entities_to_json(entities)
                lake.add_json(plural, records, description_extra=f"{etype} records")
            elif modality == "document":
                docs = DocumentRenderer(world, seed=seed).render_corpus(
                    entity_types=[etype]
                )
                lake.add_documents(plural, docs, description_extra=f"{etype} articles")
            else:
                raise ConfigError(f"unknown modality {modality!r} for {etype!r}")
        return lake

    def add_table(self, table: Table, *, description_extra: str = "") -> LakeAsset:
        description = (
            f"table {table.name} with columns {', '.join(table.schema.names())}. "
            + description_extra
        )
        asset = LakeAsset(
            asset_id=f"table:{table.name}",
            modality="table",
            name=table.name,
            description=description.strip(),
            table=table,
        )
        return self._register(asset)

    def add_json(
        self,
        name: str,
        records: List[Dict[str, object]],
        *,
        description_extra: str = "",
    ) -> LakeAsset:
        paths = sorted({path for path, _ in _leaves(records[0])}) if records else []
        description = (
            f"json collection {name} with key paths {', '.join(paths)}. "
            + description_extra
        )
        asset = LakeAsset(
            asset_id=f"json:{name}",
            modality="json",
            name=name,
            description=description.strip(),
            records=records,
        )
        return self._register(asset)

    def add_images(
        self, name: str, images: List[object], *, description_extra: str = ""
    ) -> LakeAsset:
        """Catalog an image collection; its literal description is the
        caption sample plus the photographed subjects (AOP: every modality
        has a textual handle)."""
        sample_caption = next(
            (img.caption for img in images if getattr(img, "caption", "")), ""
        )
        subjects = ", ".join(getattr(img, "subject", "") for img in images[:5])
        description = (
            f"image collection {name}: {len(images)} product photos picture "
            f"category. subjects: {subjects}. caption sample: {sample_caption} "
            + description_extra
        )
        asset = LakeAsset(
            asset_id=f"img:{name}",
            modality="image",
            name=name,
            description=description.strip(),
            images=list(images),
        )
        return self._register(asset)

    def add_documents(
        self, name: str, docs: List[Document], *, description_extra: str = ""
    ) -> LakeAsset:
        sample = docs[0].text[:200] if docs else ""
        description = (
            f"document collection {name}: {len(docs)} text articles. "
            f"sample: {sample} " + description_extra
        )
        asset = LakeAsset(
            asset_id=f"doc:{name}",
            modality="document",
            name=name,
            description=description.strip(),
            documents=docs,
        )
        return self._register(asset)

    def _register(self, asset: LakeAsset) -> LakeAsset:
        if asset.asset_id in self._assets:
            raise ConfigError(f"asset {asset.asset_id!r} already in lake")
        self._assets[asset.asset_id] = asset
        return asset

    # -------------------------------------------------------------- queries
    def assets(self) -> List[LakeAsset]:
        return [self._assets[k] for k in sorted(self._assets)]

    def get(self, asset_id: str) -> LakeAsset:
        try:
            return self._assets[asset_id]
        except KeyError:
            raise ConfigError(
                f"no asset {asset_id!r}; have {sorted(self._assets)}"
            ) from None

    def by_modality(self, modality: str) -> List[LakeAsset]:
        return [a for a in self.assets() if a.modality == modality]

    def json_as_table(self, asset_id: str) -> Table:
        """Flatten a JSON asset into a relation (key-path leaves -> columns).

        The relation is built from the asset's records at its first scan and
        shared by every later call, so callers must treat it as read-only
        (every :class:`Table` operator returns a new table). Later edits to
        ``asset.records`` are not seen. Errors are not stored: an unknown
        id, a non-JSON asset or an empty collection raise on every call.
        A column is typed ``int`` only when every record's value converts
        (see :func:`_json_dtype`), so a later non-numeric value makes it
        ``str`` instead of failing every scan.
        """
        table = self._json_tables.get(asset_id)
        if table is not None:
            return table
        asset = self.get(asset_id)
        if asset.modality != "json":
            raise ConfigError(f"{asset_id!r} is not a json asset")
        if not asset.records:
            raise ConfigError(f"json asset {asset_id!r} is empty")
        rows = [_flatten(record) for record in asset.records]
        columns = tuple(Column(key, _json_dtype(key, rows)) for key in sorted(rows[0]))
        table = Table(asset.name, Schema(columns), rows)
        self._json_tables[asset_id] = table
        return table

    def __len__(self) -> int:
        return len(self._assets)
