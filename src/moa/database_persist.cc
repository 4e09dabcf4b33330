// Database persistence: schemas + BAT catalog on disk, with full
// reconstruction of content indexes and materialized objects from the
// vertically fragmented layout (the BATs are the single source of truth,
// as in the original system).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "base/str_util.h"
#include "moa/database.h"

namespace mirror::moa {

using monet::Bat;
using monet::BatPtr;
using monet::Oid;

base::Status Database::SaveTo(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return base::Status::IoError("cannot create dir: " + dir);
  MIRROR_RETURN_IF_ERROR(catalog_.SaveTo(dir));
  // Same atomic publish protocol as the catalog manifest: write to a
  // temp file, then rename over the old copy, so a crash mid-save never
  // leaves a torn schemas.txt next to a valid manifest.
  const std::string final_path = dir + "/schemas.txt";
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream schemas(tmp_path, std::ios::trunc);
    if (!schemas) return base::Status::IoError("cannot write schemas.txt");
    for (const auto& [name, set] : sets_) {
      schemas << name << '\t' << set.cardinality << '\t'
              << set.type->ToString() << '\n';
    }
    schemas.flush();
    if (!schemas.good()) return base::Status::IoError("schema write failed");
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return base::Status::IoError("cannot publish schemas.txt");
  }
  return base::Status::Ok();
}

namespace {

/// Parses `dir`/schemas.txt into name -> (cardinality, type) skeletons.
base::Result<std::map<std::string, FlatSet>> ParseSchemas(
    const std::string& dir) {
  std::ifstream schemas(dir + "/schemas.txt");
  if (!schemas) return base::Status::IoError("cannot read schemas.txt");
  std::map<std::string, FlatSet> sets;
  std::string line;
  while (std::getline(schemas, line)) {
    if (line.empty()) continue;
    std::vector<std::string> parts = base::Split(line, '\t');
    if (parts.size() != 3) {
      return base::Status::ParseError("bad schema line: " + line);
    }
    auto type = ParseStructType(parts[2]);
    if (!type.ok()) return type.status();
    FlatSet set;
    set.name = parts[0];
    set.cardinality = static_cast<size_t>(std::stoull(parts[1]));
    set.type = type.TakeValue();
    sets.emplace(set.name, std::move(set));
  }
  return sets;
}

}  // namespace

base::Status Database::LoadFrom(const std::string& dir) {
  monet::Catalog restored;
  MIRROR_RETURN_IF_ERROR(restored.LoadFrom(dir));
  MIRROR_ASSIGN_OR_RETURN(auto sets, ParseSchemas(dir));

  // Commit the catalog, then rebuild each set's bindings from it.
  catalog_ = std::move(restored);
  sets_.clear();
  for (auto& [name, set] : sets) {
    MIRROR_RETURN_IF_ERROR(RestoreSet(&set));
    sets_.emplace(name, std::move(set));
  }
  return base::Status::Ok();
}

namespace {

/// Derives one field binding purely from the deterministic name scheme
/// (no catalog, no data). Fields whose restore needs reconstructed
/// in-memory state flip `*eager` instead of binding.
base::Status BindFieldLazy(FieldBinding* binding, const std::string& prefix,
                           const std::set<std::string>& available,
                           bool* eager) {
  switch (binding->type->kind()) {
    case StructType::Kind::kAtomic: {
      if (binding->type->base() == BaseType::kVector) {
        binding->dim_bat_names.clear();
        for (size_t d = 0;; ++d) {
          std::string bat_name = base::StrFormat("%s.d%zu", prefix.c_str(), d);
          if (available.find(bat_name) == available.end()) break;
          binding->dim_bat_names.push_back(std::move(bat_name));
        }
        return base::Status::Ok();
      }
      if (available.find(prefix) == available.end()) {
        return base::Status::NotFound("checkpointed BAT missing: " + prefix);
      }
      binding->bat_name = prefix;
      return base::Status::Ok();
    }
    case StructType::Kind::kContRep:
    case StructType::Kind::kSet:
    case StructType::Kind::kList:
      // Content indexes and nested-set groupings live in memory, not in
      // the name scheme — the whole set restores eagerly once its BATs
      // are recovered.
      *eager = true;
      return base::Status::Ok();
    case StructType::Kind::kTuple:
      return base::Status::Unimplemented("nested TUPLE fields");
  }
  return base::Status::Internal("unhandled field kind");
}

}  // namespace

base::Status Database::RestoreSchemasLazy(
    const std::string& dir, const std::set<std::string>& available,
    std::vector<std::string>* needs_eager) {
  MIRROR_ASSIGN_OR_RETURN(auto sets, ParseSchemas(dir));
  sets_.clear();
  for (auto& [name, set] : sets) {
    bool eager = false;
    const StructTypePtr elem = set.type->element();
    set.fields.clear();
    for (const StructType::Field& field : elem->fields()) {
      FieldBinding binding;
      binding.name = field.name;
      binding.type = field.type;
      MIRROR_RETURN_IF_ERROR(BindFieldLazy(&binding, name + "." + field.name,
                                           available, &eager));
      set.fields.push_back(std::move(binding));
    }
    if (eager) {
      // Bindings stay incomplete until RestoreSetFromCatalog.
      set.fields.clear();
      needs_eager->push_back(name);
    }
    sets_.emplace(name, std::move(set));
  }
  return base::Status::Ok();
}

base::Status Database::RestoreSetFromCatalog(const std::string& set_name) {
  auto it = sets_.find(set_name);
  if (it == sets_.end()) {
    return base::Status::NotFound("unknown set: " + set_name);
  }
  return RestoreSet(&it->second);
}

namespace {

/// Gathers nested-set children per parent oid from an association BAT.
std::map<Oid, std::vector<size_t>> GroupChildren(const Bat& assoc) {
  std::map<Oid, std::vector<size_t>> children;
  for (size_t i = 0; i < assoc.size(); ++i) {
    children[assoc.tail().OidAt(i)].push_back(i);
  }
  return children;
}

/// Each document's term multiset (oids below `docs`), replayed from the
/// postings in one pass, in posting order.
std::vector<std::vector<std::string>> GroupTerms(const ir::ContentIndex& index,
                                                 size_t docs) {
  std::vector<std::vector<std::string>> terms(docs);
  for (const ir::Posting& p : index.postings()) {
    if (p.doc >= docs) continue;
    for (int64_t c = 0; c < p.tf; ++c) {
      terms[p.doc].push_back(index.vocab().TermOf(p.term));
    }
  }
  return terms;
}

MoaValue AtomicFromColumn(const monet::Column& col, size_t row) {
  switch (col.type()) {
    case monet::ValueType::kInt:
      return MoaValue::Int(col.IntAt(row));
    case monet::ValueType::kDbl:
      return MoaValue::Dbl(col.DblAt(row));
    case monet::ValueType::kStr:
      return MoaValue::Str(std::string(col.StrAt(row)));
    default:
      return MoaValue::Int(static_cast<int64_t>(col.OidAt(row)));
  }
}

/// One field's sources for the object rebuild, resolved once per set
/// rather than per row.
struct FieldSource {
  const FieldBinding* binding = nullptr;
  BatPtr bat;                 // scalar atomic: void oid -> value
  std::vector<BatPtr> dims;   // Vector atomic: one BAT per dimension
  std::vector<FieldSource> subs;                // nested set: sub-fields
  std::map<Oid, std::vector<size_t>> children;  // nested set: child rows
  std::vector<std::vector<std::string>> terms;  // CONTREP: per document
};

base::Status ResolveAtomic(const monet::Catalog& catalog,
                           const FieldBinding& binding, FieldSource* out) {
  out->binding = &binding;
  if (binding.type->base() == BaseType::kVector) {
    out->dims.reserve(binding.dim_bat_names.size());
    for (const std::string& dim : binding.dim_bat_names) {
      MIRROR_ASSIGN_OR_RETURN(BatPtr bat, catalog.Get(dim));
      out->dims.push_back(std::move(bat));
    }
    return base::Status::Ok();
  }
  MIRROR_ASSIGN_OR_RETURN(out->bat, catalog.Get(binding.bat_name));
  return base::Status::Ok();
}

MoaValue AtomicAt(const FieldSource& src, size_t row) {
  if (src.binding->type->base() == BaseType::kVector) {
    std::vector<double> vec;
    vec.reserve(src.dims.size());
    for (const BatPtr& dim : src.dims) vec.push_back(dim->tail().DblAt(row));
    return MoaValue::Vector(std::move(vec));
  }
  return AtomicFromColumn(src.bat->tail(), row);
}

}  // namespace

base::Status Database::RestoreField(FlatSet* set, FieldBinding* binding,
                                    const std::string& prefix) {
  const StructTypePtr& ftype = binding->type;
  switch (ftype->kind()) {
    case StructType::Kind::kAtomic: {
      if (ftype->base() == BaseType::kVector) {
        binding->dim_bat_names.clear();
        for (size_t d = 0;; ++d) {
          std::string bat_name = base::StrFormat("%s.d%zu", prefix.c_str(), d);
          if (!catalog_.Contains(bat_name)) break;
          binding->dim_bat_names.push_back(std::move(bat_name));
        }
        return base::Status::Ok();
      }
      if (!catalog_.Contains(prefix)) {
        return base::Status::NotFound("persisted BAT missing: " + prefix);
      }
      binding->bat_name = prefix;
      return base::Status::Ok();
    }
    case StructType::Kind::kContRep: {
      auto contrep = std::make_unique<ContRepField>();
      contrep->set_name = set->name;
      contrep->field_name = binding->name;
      contrep->media = ftype->base();
      contrep->doc_bat = prefix + ".doc";
      contrep->term_bat = prefix + ".term";
      contrep->tf_bat = prefix + ".tf";
      contrep->df_bat = prefix + ".df";
      contrep->len_bat = prefix + ".len";
      contrep->vocab_bat = prefix + ".vocab";
      MIRROR_ASSIGN_OR_RETURN(BatPtr vocab, catalog_.Get(contrep->vocab_bat));
      MIRROR_ASSIGN_OR_RETURN(BatPtr doc, catalog_.Get(contrep->doc_bat));
      MIRROR_ASSIGN_OR_RETURN(BatPtr term, catalog_.Get(contrep->term_bat));
      MIRROR_ASSIGN_OR_RETURN(BatPtr tf, catalog_.Get(contrep->tf_bat));
      MIRROR_ASSIGN_OR_RETURN(BatPtr df, catalog_.Get(contrep->df_bat));
      MIRROR_ASSIGN_OR_RETURN(BatPtr len, catalog_.Get(contrep->len_bat));
      auto restored =
          ir::ContentIndex::FromBats(*vocab, *doc, *term, *tf, *df, *len);
      if (!restored.ok()) {
        return base::Status::InvalidArgument(
            prefix + ": " + restored.status().message());
      }
      contrep->index = restored.TakeValue();
      contrep->network =
          std::make_unique<ir::InferenceNetwork>(&contrep->index);
      binding->contrep_index = static_cast<int>(set->contreps.size());
      set->contreps.push_back(std::move(contrep));
      return base::Status::Ok();
    }
    case StructType::Kind::kSet:
    case StructType::Kind::kList: {
      binding->assoc_bat_name = prefix + ".assoc";
      if (!catalog_.Contains(binding->assoc_bat_name)) {
        return base::Status::NotFound("persisted BAT missing: " +
                                      binding->assoc_bat_name);
      }
      const StructTypePtr& elem = ftype->element();
      binding->sub_fields.clear();
      for (const StructType::Field& field : elem->fields()) {
        FieldBinding sub;
        sub.name = field.name;
        sub.type = field.type;
        MIRROR_RETURN_IF_ERROR(
            RestoreField(set, &sub, prefix + "." + field.name));
        binding->sub_fields.push_back(std::move(sub));
      }
      return base::Status::Ok();
    }
    case StructType::Kind::kTuple:
      return base::Status::Unimplemented("nested TUPLE fields");
  }
  return base::Status::Internal("unhandled field kind");
}

base::Status Database::RestoreSet(FlatSet* set) {
  const StructTypePtr elem = set->type->element();
  set->fields.clear();
  set->contreps.clear();
  for (const StructType::Field& field : elem->fields()) {
    FieldBinding binding;
    binding.name = field.name;
    binding.type = field.type;
    MIRROR_RETURN_IF_ERROR(
        RestoreField(set, &binding, set->name + "." + field.name));
    set->fields.push_back(std::move(binding));
  }

  // Rebuild the materialized objects for the naive interpreter. The BAT
  // layout is the source of truth; term order inside a CONTREP multiset
  // is not original-order but the multiset (and thus all semantics) is.
  // BATs, nested-set memberships and CONTREP postings are resolved once
  // per field, not per object.
  std::vector<FieldSource> sources(set->fields.size());
  for (size_t fi = 0; fi < set->fields.size(); ++fi) {
    const FieldBinding& binding = set->fields[fi];
    FieldSource& src = sources[fi];
    src.binding = &binding;
    switch (binding.type->kind()) {
      case StructType::Kind::kAtomic:
        MIRROR_RETURN_IF_ERROR(ResolveAtomic(catalog_, binding, &src));
        break;
      case StructType::Kind::kContRep:
        src.terms = GroupTerms(
            set->contreps[static_cast<size_t>(binding.contrep_index)]->index,
            set->cardinality);
        break;
      case StructType::Kind::kSet:
      case StructType::Kind::kList: {
        MIRROR_ASSIGN_OR_RETURN(BatPtr assoc,
                                catalog_.Get(binding.assoc_bat_name));
        src.children = GroupChildren(*assoc);
        src.subs.resize(binding.sub_fields.size());
        for (size_t si = 0; si < binding.sub_fields.size(); ++si) {
          MIRROR_RETURN_IF_ERROR(
              ResolveAtomic(catalog_, binding.sub_fields[si], &src.subs[si]));
        }
        break;
      }
      default:
        return base::Status::Unimplemented("object reconstruction for " +
                                           binding.type->ToString());
    }
  }
  set->objects.clear();
  set->objects.reserve(set->cardinality);
  for (size_t oid = 0; oid < set->cardinality; ++oid) {
    std::vector<MoaValue> fields;
    fields.reserve(sources.size());
    for (FieldSource& src : sources) {
      switch (src.binding->type->kind()) {
        case StructType::Kind::kAtomic:
          fields.push_back(AtomicAt(src, oid));
          break;
        case StructType::Kind::kContRep:
          fields.push_back(MoaValue::ContRep(std::move(src.terms[oid])));
          break;
        default: {  // nested set or list
          std::vector<MoaValue> elements;
          auto it = src.children.find(oid);
          if (it != src.children.end()) {
            elements.reserve(it->second.size());
            for (size_t child_row : it->second) {
              std::vector<MoaValue> child_fields;
              child_fields.reserve(src.subs.size());
              for (const FieldSource& sub : src.subs) {
                child_fields.push_back(AtomicAt(sub, child_row));
              }
              elements.push_back(MoaValue::Tuple(std::move(child_fields)));
            }
          }
          fields.push_back(MoaValue::SetOf(std::move(elements)));
          break;
        }
      }
    }
    set->objects.push_back(MoaValue::Tuple(std::move(fields)));
  }
  return base::Status::Ok();
}

}  // namespace mirror::moa
