#include "moa/database.h"

#include <algorithm>
#include <functional>

#include "base/str_util.h"
#include "monet/worker_pool.h"

namespace mirror::moa {

using monet::Bat;
using monet::Column;
using monet::Oid;

const FieldBinding* FlatSet::FindField(std::string_view field_name) const {
  for (const FieldBinding& f : fields) {
    if (f.name == field_name) return &f;
  }
  return nullptr;
}

const ContRepField* FlatSet::FindContRep(std::string_view field_name) const {
  const FieldBinding* f = FindField(field_name);
  if (f == nullptr || f->contrep_index < 0) return nullptr;
  return contreps[static_cast<size_t>(f->contrep_index)].get();
}

Database::Database()
    : text_pipeline_(ir::TextPipeline::Options{.remove_stopwords = true,
                                               .stem = true,
                                               .keep_underscore = true}) {}

base::Status Database::Define(std::string_view schema_text) {
  auto def = ParseSchemaDef(schema_text);
  if (!def.ok()) return def.status();
  return DefineParsed(def.value());
}

base::Status Database::DefineParsed(const SchemaDef& def) {
  if (sets_.count(def.name) > 0) {
    return base::Status::AlreadyExists("set already defined: " + def.name);
  }
  if (def.type->kind() != StructType::Kind::kSet &&
      def.type->kind() != StructType::Kind::kList) {
    return base::Status::TypeError(
        "top-level schema must be SET<...> or LIST<...>, got " +
        def.type->ToString());
  }
  if (def.type->element()->kind() != StructType::Kind::kTuple) {
    return base::Status::TypeError(
        "top-level element type must be TUPLE<...>, got " +
        def.type->element()->ToString());
  }
  FlatSet set;
  set.name = def.name;
  set.type = def.type;
  sets_.emplace(def.name, std::move(set));
  return base::Status::Ok();
}

namespace {

/// Why `v` is not a `base` value, or nullptr when it is one. Allocates
/// nothing, so shredding workers can call it.
const char* AtomicMismatch(const MoaValue& v, BaseType base) {
  if (base == BaseType::kVector) {
    return v.kind() == MoaValue::Kind::kVector ? nullptr
                                                : "expected Vector value";
  }
  if (v.kind() != MoaValue::Kind::kAtomic) return "expected atomic value";
  monet::ValueType vt = v.atomic().type();
  switch (base) {
    case BaseType::kInt:
      return vt == monet::ValueType::kInt ? nullptr : "expected int";
    case BaseType::kDbl:
      return vt == monet::ValueType::kDbl || vt == monet::ValueType::kInt
                 ? nullptr
                 : "expected dbl";
    case BaseType::kStr:
    case BaseType::kUrl:
    case BaseType::kText:
    case BaseType::kImage:
      return vt == monet::ValueType::kStr ? nullptr : "expected str";
    default:
      return "unsupported base type";
  }
}

base::Status CheckAtomic(const MoaValue& v, BaseType base,
                         const std::string& context) {
  const char* mismatch = AtomicMismatch(v, base);
  if (mismatch == nullptr) return base::Status::Ok();
  return base::Status::TypeError(context + ": " + mismatch);
}

/// Runs `shred(lo, hi)` over row morsels of `n` rows on the shared worker
/// pool, at whatever size it has. Each call returns the first row of its
/// morsel it rejects (or `hi`); the result is the lowest rejected row, or
/// n when every row passed. Workers write only into storage the calling
/// thread sized beforehand.
size_t ShredRows(size_t n, const std::function<size_t(size_t, size_t)>& shred) {
  constexpr size_t kMinMorselRows = 16 * 1024;
  monet::WorkerPool& pool = monet::SharedWorkerPool();
  const size_t threads = static_cast<size_t>(pool.size()) + 1;
  const size_t morsels =
      std::max<size_t>(1, std::min(n / kMinMorselRows, 4 * threads));
  std::vector<size_t> rejected(morsels, n);
  monet::ParallelForChunks(&pool, n, morsels,
                           [&](size_t m, size_t lo, size_t hi) {
                             const size_t bad = shred(lo, hi);
                             if (bad < hi) rejected[m] = bad;
                           });
  return *std::min_element(rejected.begin(), rejected.end());
}

}  // namespace

base::Status Database::LoadField(const std::string& set_name,
                                 FieldBinding* binding,
                                 const std::vector<MoaValue>& objects,
                                 size_t field_index, LoadStaging* staged) {
  const StructTypePtr& ftype = binding->type;
  const std::string prefix = set_name + "." + binding->name;
  switch (ftype->kind()) {
    case StructType::Kind::kAtomic: {
      // Row morsels shred in parallel into columns sized here; the lowest
      // rejected row reports the error, and nothing is staged for it.
      const size_t n = objects.size();
      auto value_at = [&](size_t row) -> const MoaValue& {
        return objects[row].field(field_index);
      };
      const BaseType base = ftype->base();
      if (base == BaseType::kVector) {
        // Dimensionality comes from the first object.
        const size_t dims = n > 0 ? value_at(0).vec().size() : 0;
        std::vector<std::vector<double>> cols(dims, std::vector<double>(n));
        const size_t bad = ShredRows(n, [&](size_t lo, size_t hi) {
          for (size_t row = lo; row < hi; ++row) {
            const MoaValue& v = value_at(row);
            if (AtomicMismatch(v, base) != nullptr || v.vec().size() != dims) {
              return row;
            }
            for (size_t d = 0; d < dims; ++d) cols[d][row] = v.vec()[d];
          }
          return hi;
        });
        if (bad < n) {
          MIRROR_RETURN_IF_ERROR(CheckAtomic(value_at(bad), base, prefix));
          return base::Status::TypeError(prefix +
                                         ": inconsistent vector dims");
        }
        binding->dim_bat_names.clear();
        for (size_t d = 0; d < dims; ++d) {
          std::string bat_name = base::StrFormat("%s.d%zu", prefix.c_str(), d);
          staged->bats.emplace_back(bat_name,
                                    Bat::DenseDbls(std::move(cols[d])));
          binding->dim_bat_names.push_back(std::move(bat_name));
        }
        return base::Status::Ok();
      }
      // Scalar atomic column.
      size_t bad = n;
      switch (base) {
        case BaseType::kInt: {
          std::vector<int64_t> vals(n);
          bad = ShredRows(n, [&](size_t lo, size_t hi) {
            for (size_t row = lo; row < hi; ++row) {
              const MoaValue& v = value_at(row);
              if (AtomicMismatch(v, base) != nullptr) return row;
              vals[row] = v.atomic().i();
            }
            return hi;
          });
          if (bad == n) {
            staged->bats.emplace_back(prefix, Bat::DenseInts(std::move(vals)));
          }
          break;
        }
        case BaseType::kDbl: {
          std::vector<double> vals(n);
          bad = ShredRows(n, [&](size_t lo, size_t hi) {
            for (size_t row = lo; row < hi; ++row) {
              const MoaValue& v = value_at(row);
              if (AtomicMismatch(v, base) != nullptr) return row;
              vals[row] = v.atomic().AsDouble();
            }
            return hi;
          });
          if (bad == n) {
            staged->bats.emplace_back(prefix, Bat::DenseDbls(std::move(vals)));
          }
          break;
        }
        default: {  // all string flavors
          // Check every row first, then intern straight from the objects.
          bad = ShredRows(n, [&](size_t lo, size_t hi) {
            for (size_t row = lo; row < hi; ++row) {
              if (AtomicMismatch(value_at(row), base) != nullptr) return row;
            }
            return hi;
          });
          if (bad < n) break;
          std::vector<uint32_t> offsets;
          auto heap = std::make_shared<monet::StringHeap>(
              monet::StringHeap::Build(
                  n,
                  [&](size_t row) -> std::string_view {
                    return value_at(row).atomic().s();
                  },
                  &offsets, &monet::SharedWorkerPool()));
          staged->bats.emplace_back(
              prefix, Bat(Column::MakeVoid(0, n),
                          Column::MakeStrsShared(std::move(heap),
                                                 std::move(offsets))));
          break;
        }
      }
      if (bad < n) return CheckAtomic(value_at(bad), base, prefix);
      binding->bat_name = prefix;
      return base::Status::Ok();
    }
    case StructType::Kind::kContRep: {
      auto contrep = std::make_unique<ContRepField>();
      contrep->set_name = set_name;
      contrep->field_name = binding->name;
      contrep->media = ftype->base();
      // Document morsels count terms on the shared pool; text rows run
      // through the (stateless) text pipeline inside their morsel.
      auto built = ir::ContentIndex::Build(
          objects.size(),
          [&](size_t row, std::vector<std::string>* storage)
              -> const std::vector<std::string>* {
            const MoaValue& v = objects[row].field(field_index);
            if (v.kind() == MoaValue::Kind::kContRep) return &v.terms();
            if (v.kind() == MoaValue::Kind::kAtomic &&
                v.atomic().type() == monet::ValueType::kStr) {
              *storage = text_pipeline_.Process(v.atomic().s());
              return storage;
            }
            return nullptr;
          },
          &monet::SharedWorkerPool());
      if (!built.ok()) {
        return base::Status::TypeError(prefix +
                                       ": CONTREP needs terms or text");
      }
      contrep->index = built.TakeValue();
      contrep->network =
          std::make_unique<ir::InferenceNetwork>(&contrep->index);
      contrep->doc_bat = prefix + ".doc";
      contrep->term_bat = prefix + ".term";
      contrep->tf_bat = prefix + ".tf";
      contrep->df_bat = prefix + ".df";
      contrep->len_bat = prefix + ".len";
      contrep->vocab_bat = prefix + ".vocab";
      staged->bats.emplace_back(contrep->doc_bat, contrep->index.DocBat());
      staged->bats.emplace_back(contrep->term_bat, contrep->index.TermBat());
      staged->bats.emplace_back(contrep->tf_bat, contrep->index.TfBat());
      staged->bats.emplace_back(contrep->df_bat, contrep->index.DfBat());
      staged->bats.emplace_back(contrep->len_bat, contrep->index.DocLenBat());
      staged->bats.emplace_back(contrep->vocab_bat, contrep->index.VocabBat());
      binding->contrep_index = static_cast<int>(staged->contreps.size());
      staged->contreps.push_back(std::move(contrep));
      return base::Status::Ok();
    }
    case StructType::Kind::kSet:
    case StructType::Kind::kList: {
      // Nested collection of tuples: vertical fragmentation with an
      // association BAT (parent oid -> child oid).
      const StructTypePtr& elem = ftype->element();
      if (elem->kind() != StructType::Kind::kTuple) {
        return base::Status::TypeError(prefix +
                                       ": nested sets must contain tuples");
      }
      std::vector<Oid> parents;
      std::vector<MoaValue> children;
      for (size_t i = 0; i < objects.size(); ++i) {
        const MoaValue& v = objects[i].field(field_index);
        if (v.kind() != MoaValue::Kind::kSet) {
          return base::Status::TypeError(prefix + ": expected set value");
        }
        for (const MoaValue& child : v.elements()) {
          parents.push_back(static_cast<Oid>(i));
          children.push_back(child);
        }
      }
      binding->assoc_bat_name = prefix + ".assoc";
      staged->bats.emplace_back(binding->assoc_bat_name,
                                Bat::DenseOids(std::move(parents)));
      binding->sub_fields.clear();
      for (size_t fi = 0; fi < elem->fields().size(); ++fi) {
        FieldBinding sub;
        sub.name = elem->fields()[fi].name;
        sub.type = elem->fields()[fi].type;
        // Child columns load as a pseudo-set named by the path.
        MIRROR_RETURN_IF_ERROR(LoadField(prefix, &sub, children, fi, staged));
        binding->sub_fields.push_back(std::move(sub));
      }
      return base::Status::Ok();
    }
    case StructType::Kind::kTuple:
      return base::Status::Unimplemented(
          prefix + ": directly nested TUPLE fields are not supported; wrap "
                   "in SET or flatten the schema");
  }
  return base::Status::Internal("unhandled field kind");
}

base::Status Database::Load(const std::string& set_name,
                            std::vector<MoaValue> objects) {
  auto it = sets_.find(set_name);
  if (it == sets_.end()) {
    return base::Status::NotFound("set not defined: " + set_name);
  }
  FlatSet& set = it->second;
  const StructTypePtr elem = set.type->element();
  const size_t bad = ShredRows(objects.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (objects[i].kind() != MoaValue::Kind::kTuple ||
          objects[i].children().size() != elem->fields().size()) {
        return i;
      }
    }
    return hi;
  });
  if (bad < objects.size()) {
    return base::Status::TypeError(
        base::StrFormat("%s: object %zu is not a %zu-field tuple",
                        set_name.c_str(), bad, elem->fields().size()));
  }
  // Shred every field into staged BATs and bindings first; the catalog
  // and the set change only once all of them succeeded, so a failed Load
  // leaves the previous contents whole.
  LoadStaging staged;
  std::vector<FieldBinding> fields;
  fields.reserve(elem->fields().size());
  for (size_t fi = 0; fi < elem->fields().size(); ++fi) {
    FieldBinding binding;
    binding.name = elem->fields()[fi].name;
    binding.type = elem->fields()[fi].type;
    MIRROR_RETURN_IF_ERROR(LoadField(set_name, &binding, objects, fi, &staged));
    fields.push_back(std::move(binding));
  }
  for (auto& [name, bat] : staged.bats) catalog_.Put(name, std::move(bat));
  set.fields = std::move(fields);
  set.contreps = std::move(staged.contreps);
  set.cardinality = objects.size();
  set.objects = std::move(objects);
  return base::Status::Ok();
}

base::Result<const FlatSet*> Database::GetSet(
    const std::string& set_name) const {
  auto it = sets_.find(set_name);
  if (it == sets_.end()) {
    return base::Status::NotFound("set not defined: " + set_name);
  }
  return &it->second;
}

std::vector<std::string> Database::SetNames() const {
  std::vector<std::string> names;
  names.reserve(sets_.size());
  for (const auto& [name, set] : sets_) names.push_back(name);
  return names;
}

}  // namespace mirror::moa
