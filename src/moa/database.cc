#include "moa/database.h"

#include <algorithm>

#include "base/str_util.h"

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

base::Status CheckAtomic(const MoaValue& v, BaseType base,
                         const std::string& context) {
  if (base == BaseType::kVector) {
    if (v.kind() != MoaValue::Kind::kVector) {
      return base::Status::TypeError(context + ": expected Vector value");
    }
    return base::Status::Ok();
  }
  if (v.kind() != MoaValue::Kind::kAtomic) {
    return base::Status::TypeError(context + ": expected atomic value");
  }
  monet::ValueType vt = v.atomic().type();
  switch (base) {
    case BaseType::kInt:
      if (vt != monet::ValueType::kInt) {
        return base::Status::TypeError(context + ": expected int");
      }
      break;
    case BaseType::kDbl:
      if (vt != monet::ValueType::kDbl && vt != monet::ValueType::kInt) {
        return base::Status::TypeError(context + ": expected dbl");
      }
      break;
    case BaseType::kStr:
    case BaseType::kUrl:
    case BaseType::kText:
    case BaseType::kImage:
      if (vt != monet::ValueType::kStr) {
        return base::Status::TypeError(context + ": expected str");
      }
      break;
    default:
      return base::Status::TypeError(context + ": unsupported base type");
  }
  return base::Status::Ok();
}

}  // namespace

base::Status Database::LoadField(FlatSet* set, FieldBinding* binding,
                                 const std::vector<MoaValue>& objects,
                                 size_t field_index) {
  const StructTypePtr& ftype = binding->type;
  const std::string prefix = set->name + "." + binding->name;
  switch (ftype->kind()) {
    case StructType::Kind::kAtomic: {
      if (ftype->base() == BaseType::kVector) {
        // Determine dimensionality from the first object.
        size_t dims = 0;
        if (!objects.empty()) {
          dims = objects[0].field(field_index).vec().size();
        }
        std::vector<std::vector<double>> cols(dims);
        for (const MoaValue& obj : objects) {
          const MoaValue& v = obj.field(field_index);
          MIRROR_RETURN_IF_ERROR(
              CheckAtomic(v, BaseType::kVector, prefix));
          if (v.vec().size() != dims) {
            return base::Status::TypeError(prefix +
                                           ": inconsistent vector dims");
          }
          for (size_t d = 0; d < dims; ++d) cols[d].push_back(v.vec()[d]);
        }
        binding->dim_bat_names.clear();
        for (size_t d = 0; d < dims; ++d) {
          std::string bat_name = base::StrFormat("%s.d%zu", prefix.c_str(), d);
          catalog_.Put(bat_name, Bat::DenseDbls(std::move(cols[d])));
          binding->dim_bat_names.push_back(std::move(bat_name));
        }
        return base::Status::Ok();
      }
      // Scalar atomic column.
      switch (ftype->base()) {
        case BaseType::kInt: {
          std::vector<int64_t> vals;
          vals.reserve(objects.size());
          for (const MoaValue& obj : objects) {
            const MoaValue& v = obj.field(field_index);
            MIRROR_RETURN_IF_ERROR(CheckAtomic(v, BaseType::kInt, prefix));
            vals.push_back(v.atomic().i());
          }
          catalog_.Put(prefix, Bat::DenseInts(std::move(vals)));
          break;
        }
        case BaseType::kDbl: {
          std::vector<double> vals;
          vals.reserve(objects.size());
          for (const MoaValue& obj : objects) {
            const MoaValue& v = obj.field(field_index);
            MIRROR_RETURN_IF_ERROR(CheckAtomic(v, BaseType::kDbl, prefix));
            vals.push_back(v.atomic().AsDouble());
          }
          catalog_.Put(prefix, Bat::DenseDbls(std::move(vals)));
          break;
        }
        default: {  // all string flavors
          // Intern straight from the objects into a heap sized once for
          // the upper bound (every spelling distinct).
          size_t bytes = 0;
          for (const MoaValue& obj : objects) {
            const MoaValue& v = obj.field(field_index);
            MIRROR_RETURN_IF_ERROR(CheckAtomic(v, ftype->base(), prefix));
            bytes += v.atomic().s().size() + 1;
          }
          auto heap = std::make_shared<monet::StringHeap>();
          heap->Reserve(objects.size(), bytes);
          std::vector<uint32_t> offsets;
          offsets.reserve(objects.size());
          for (const MoaValue& obj : objects) {
            offsets.push_back(
                heap->Intern(obj.field(field_index).atomic().s()));
          }
          heap->ShrinkToFit();
          catalog_.Put(prefix,
                       Bat(Column::MakeVoid(0, objects.size()),
                           Column::MakeStrsShared(std::move(heap),
                                                  std::move(offsets))));
          break;
        }
      }
      binding->bat_name = prefix;
      return base::Status::Ok();
    }
    case StructType::Kind::kContRep: {
      auto contrep = std::make_unique<ContRepField>();
      contrep->set_name = set->name;
      contrep->field_name = binding->name;
      contrep->media = ftype->base();
      for (size_t i = 0; i < objects.size(); ++i) {
        const MoaValue& v = objects[i].field(field_index);
        std::vector<std::string> terms;
        if (v.kind() == MoaValue::Kind::kContRep) {
          terms = v.terms();
        } else if (v.kind() == MoaValue::Kind::kAtomic &&
                   v.atomic().type() == monet::ValueType::kStr) {
          terms = text_pipeline_.Process(v.atomic().s());
        } else {
          return base::Status::TypeError(prefix +
                                         ": CONTREP needs terms or text");
        }
        contrep->index.AddDocument(static_cast<Oid>(i), terms);
      }
      contrep->index.Finalize();
      contrep->network =
          std::make_unique<ir::InferenceNetwork>(&contrep->index);
      contrep->doc_bat = prefix + ".doc";
      contrep->term_bat = prefix + ".term";
      contrep->tf_bat = prefix + ".tf";
      contrep->df_bat = prefix + ".df";
      contrep->len_bat = prefix + ".len";
      contrep->vocab_bat = prefix + ".vocab";
      catalog_.Put(contrep->doc_bat, contrep->index.DocBat());
      catalog_.Put(contrep->term_bat, contrep->index.TermBat());
      catalog_.Put(contrep->tf_bat, contrep->index.TfBat());
      catalog_.Put(contrep->df_bat, contrep->index.DfBat());
      catalog_.Put(contrep->len_bat, contrep->index.DocLenBat());
      {
        std::vector<std::string> terms;
        terms.reserve(static_cast<size_t>(contrep->index.vocab().size()));
        for (int64_t t = 0; t < contrep->index.vocab().size(); ++t) {
          terms.push_back(contrep->index.vocab().TermOf(t));
        }
        catalog_.Put(contrep->vocab_bat, Bat::DenseStrs(terms));
      }
      binding->contrep_index = static_cast<int>(set->contreps.size());
      set->contreps.push_back(std::move(contrep));
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
      catalog_.Put(binding->assoc_bat_name, Bat::DenseOids(std::move(parents)));
      binding->sub_fields.clear();
      for (size_t fi = 0; fi < elem->fields().size(); ++fi) {
        FieldBinding sub;
        sub.name = elem->fields()[fi].name;
        sub.type = elem->fields()[fi].type;
        // Child columns are loaded as a pseudo-set named by the path.
        FlatSet pseudo;
        pseudo.name = prefix;
        MIRROR_RETURN_IF_ERROR(LoadField(&pseudo, &sub, children, fi));
        // Adopt any contreps the child created (none expected, but keep
        // the structure sound).
        for (auto& c : pseudo.contreps) set->contreps.push_back(std::move(c));
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
  for (size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].kind() != MoaValue::Kind::kTuple ||
        objects[i].children().size() != elem->fields().size()) {
      return base::Status::TypeError(base::StrFormat(
          "%s: object %zu is not a %zu-field tuple", set_name.c_str(), i,
          elem->fields().size()));
    }
  }
  set.fields.clear();
  set.contreps.clear();
  set.cardinality = objects.size();
  for (size_t fi = 0; fi < elem->fields().size(); ++fi) {
    FieldBinding binding;
    binding.name = elem->fields()[fi].name;
    binding.type = elem->fields()[fi].type;
    MIRROR_RETURN_IF_ERROR(LoadField(&set, &binding, objects, fi));
    set.fields.push_back(std::move(binding));
  }
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
