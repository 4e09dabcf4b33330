#ifndef MIRROR_MOA_DATABASE_H_
#define MIRROR_MOA_DATABASE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "ir/content_index.h"
#include "ir/inference_network.h"
#include "ir/text_pipeline.h"
#include "moa/moa_value.h"
#include "moa/structure_type.h"
#include "monet/catalog.h"

namespace mirror::moa {

/// The indexed content representation of one CONTREP field of a stored
/// set: a content index (vocabulary, postings, statistics), its inference
/// network, and the names of its BAT export in the physical catalog.
struct ContRepField {
  std::string set_name;
  std::string field_name;
  BaseType media = BaseType::kText;

  ir::ContentIndex index;
  std::unique_ptr<ir::InferenceNetwork> network;

  // Catalog names of the BAT export (posting-aligned; see ContentIndex).
  std::string doc_bat;
  std::string term_bat;
  std::string tf_bat;
  std::string df_bat;
  std::string len_bat;
  std::string vocab_bat;  // term id -> term spelling
};

/// Physical binding of one top-level tuple field of a stored set.
struct FieldBinding {
  std::string name;
  StructTypePtr type;
  /// kAtomic: the catalog BAT name (void oid -> value).
  std::string bat_name;
  /// kAtomic of Vector: one BAT per dimension.
  std::vector<std::string> dim_bat_names;
  /// kContRep: index of the field in FlatSet::contreps.
  int contrep_index = -1;
  /// Nested kSet of TUPLE: association BAT (parent oid -> child oid) and
  /// per-subfield child BATs (void child oid -> value).
  std::string assoc_bat_name;
  std::vector<FieldBinding> sub_fields;
};

/// A loaded named set: `define <name> as SET<TUPLE<...>>` plus its data in
/// both representations — the materialized objects (for the naive
/// object-at-a-time interpreter, experiment E1's baseline) and the
/// vertically fragmented BAT layout in the catalog (for the flattened
/// engine).
struct FlatSet {
  std::string name;
  StructTypePtr type;         // SET<TUPLE<...>>
  size_t cardinality = 0;
  std::vector<FieldBinding> fields;
  std::vector<std::unique_ptr<ContRepField>> contreps;
  std::vector<MoaValue> objects;  // the OO baseline representation

  /// Field binding by name, or nullptr.
  const FieldBinding* FindField(std::string_view field_name) const;

  /// CONTREP field by name, or nullptr.
  const ContRepField* FindContRep(std::string_view field_name) const;
};

/// The logical-layer database: schema definitions plus loaded sets, all
/// backed by a single physical BAT catalog. (The full Mirror DBMS in
/// src/mirror adds the daemon environment and the retrieval application
/// on top.)
class Database {
 public:
  Database();

  /// Parses and registers a schema ("define X as SET<TUPLE<...>>;").
  /// The set starts empty; fill it with Load().
  base::Status Define(std::string_view schema_text);

  /// Registers an already-parsed schema.
  base::Status DefineParsed(const SchemaDef& def);

  /// Bulk-loads objects into a defined set (replacing existing contents).
  /// Each object must be a TUPLE matching the element type; CONTREP
  /// fields accept kContRep values (pre-tokenized terms) or atomic str
  /// values (run through the text pipeline). Builds all BATs and content
  /// indexes. All or nothing: on error the set and the catalog keep their
  /// previous contents. Atomic fields shred in row morsels on the shared
  /// worker pool at whatever size it has (MirrorDb::Load grows it first);
  /// when several objects are bad, the lowest-indexed one is reported.
  base::Status Load(const std::string& set_name,
                    std::vector<MoaValue> objects);

  /// Looks up a loaded (or defined-empty) set.
  base::Result<const FlatSet*> GetSet(const std::string& set_name) const;

  /// Names of all defined sets, sorted.
  std::vector<std::string> SetNames() const;

  /// Persists the whole database — schemas plus the physical BAT catalog
  /// — into `dir` (created if needed).
  base::Status SaveTo(const std::string& dir) const;

  /// Restores a database persisted with SaveTo, replacing the current
  /// contents. Content indexes (and the materialized objects used by the
  /// naive interpreter) are reconstructed from the BAT layout.
  base::Status LoadFrom(const std::string& dir);

  /// The instant-recovery schema restore: re-defines every set persisted
  /// in `dir` (schema + cardinality) and derives field bindings purely
  /// from the deterministic BAT name scheme against `available` (the
  /// checkpoint manifest's names) — WITHOUT touching the catalog, which
  /// stays empty until recovery loads fragments on demand. Sets whose
  /// fields need reconstructed in-memory state (CONTREP content indexes,
  /// nested sets) cannot bind lazily; their names are appended to
  /// `needs_eager` and the caller completes them with
  /// RestoreSetFromCatalog once their BATs are recovered. Lazily bound
  /// sets carry no materialized objects, so only flattened execution is
  /// valid on them (the daemon's only mode).
  base::Status RestoreSchemasLazy(const std::string& dir,
                                  const std::set<std::string>& available,
                                  std::vector<std::string>* needs_eager);

  /// Rebuilds one set's bindings, content indexes and materialized
  /// objects from the already-populated catalog (the eager completion
  /// for sets RestoreSchemasLazy reported in `needs_eager`).
  base::Status RestoreSetFromCatalog(const std::string& set_name);

  monet::Catalog* catalog() { return &catalog_; }
  const monet::Catalog& catalog() const { return catalog_; }

  const ir::TextPipeline& text_pipeline() const { return text_pipeline_; }

 private:
  /// What a Load builds before it commits: the BATs to Put and the
  /// content indexes of the set's CONTREP fields.
  struct LoadStaging {
    std::vector<std::pair<std::string, monet::Bat>> bats;
    std::vector<std::unique_ptr<ContRepField>> contreps;
  };

  base::Status LoadField(const std::string& set_name, FieldBinding* binding,
                         const std::vector<MoaValue>& objects,
                         size_t field_index, LoadStaging* staged);

  base::Status RestoreSet(FlatSet* set);
  base::Status RestoreField(FlatSet* set, FieldBinding* binding,
                            const std::string& prefix);

  monet::Catalog catalog_;
  std::map<std::string, FlatSet> sets_;
  ir::TextPipeline text_pipeline_;
};

}  // namespace mirror::moa

#endif  // MIRROR_MOA_DATABASE_H_
