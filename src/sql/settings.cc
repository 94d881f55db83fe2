#include "sql/settings.h"

#include <cctype>
#include <cmath>
#include <utility>

namespace hermes::sql {

std::string Settings::Canonical(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Status Settings::Register(std::string name, Value default_value,
                          std::string description, Validator validate,
                          OnChange on_change) {
  if (default_value.is_null()) {
    return Status::InvalidArgument("setting " + name +
                                   " needs a typed (non-null) default");
  }
  std::string key = Canonical(name);
  if (settings_.count(key) > 0) {
    return Status::AlreadyExists("setting " + key + " already registered");
  }
  if (validate) HERMES_RETURN_NOT_OK(validate(default_value));
  Setting s;
  s.name = key;
  s.description = std::move(description);
  s.value = default_value;
  s.default_value = std::move(default_value);
  s.validate = std::move(validate);
  s.on_change = std::move(on_change);
  settings_.emplace(std::move(key), std::move(s));
  return Status::OK();
}

namespace {

/// Coerces `v` to the registered type of `s` (int<->double widening /
/// integral narrowing only), or explains why it cannot.
StatusOr<Value> Coerce(const Settings::Setting& s, const Value& v) {
  if (v.type() == s.type()) return v;
  if (s.type() == ValueType::kInt && v.type() == ValueType::kDouble) {
    const double d = v.AsDouble();
    if (d != std::floor(d) || std::abs(d) > 9.0e18) {
      return Status::InvalidArgument(s.name + " must be an integer, got " +
                                     v.ToString());
    }
    return Value::Int(static_cast<int64_t>(d));
  }
  if (s.type() == ValueType::kDouble && v.type() == ValueType::kInt) {
    return Value::Double(v.AsDouble());
  }
  return Status::InvalidArgument(s.name + " expects a " +
                                 ValueTypeName(s.type()) + " value, got " +
                                 ValueTypeName(v.type()) +
                                 (v.is_null() ? "" : " '" + v.ToString() + "'"));
}

}  // namespace

Status Settings::Set(const std::string& name, Value v) {
  auto it = settings_.find(Canonical(name));
  if (it == settings_.end()) {
    return Status::NotSupported("unrecognized setting " + Canonical(name));
  }
  Setting& s = it->second;
  HERMES_ASSIGN_OR_RETURN(Value coerced, Coerce(s, v));
  if (s.validate) HERMES_RETURN_NOT_OK(s.validate(coerced));
  Value previous = s.value;
  s.value = coerced;
  if (s.on_change) {
    Status hook = s.on_change(coerced);
    if (!hook.ok()) {
      s.value = std::move(previous);
      return hook;
    }
  }
  return Status::OK();
}

StatusOr<Value> Settings::Get(const std::string& name) const {
  const Setting* s = Find(name);
  if (s == nullptr) {
    return Status::NotSupported("unrecognized setting " + Canonical(name));
  }
  return s->value;
}

const Settings::Setting* Settings::Find(const std::string& name) const {
  auto it = settings_.find(Canonical(name));
  return it == settings_.end() ? nullptr : &it->second;
}

std::vector<const Settings::Setting*> Settings::All() const {
  std::vector<const Setting*> out;
  out.reserve(settings_.size());
  for (const auto& [key, s] : settings_) out.push_back(&s);
  return out;
}

Status RegisterHermesSettings(
    Settings* settings, const HermesSettingDefaults& defaults,
    std::function<Status(size_t)> on_threads_change) {
  HERMES_RETURN_NOT_OK(settings->Register(
      "hermes.threads", Value::Int(defaults.threads),
      "worker threads for analytic statements (1 = sequential)",
      [](const Value& v) {
        if (v.AsInt() < 1 || v.AsInt() > 1024) {
          return Status::InvalidArgument(
              "hermes.threads must be an integer in [1, 1024], got " +
              v.ToString());
        }
        return Status::OK();
      },
      [hook = std::move(on_threads_change)](const Value& v) {
        if (!hook) return Status::OK();
        return hook(static_cast<size_t>(v.AsInt()));
      }));
  auto positive = [](const char* name) {
    return [name](const Value& v) {
      if (!std::isfinite(v.AsDouble()) || v.AsDouble() <= 0.0) {
        return Status::InvalidArgument(std::string(name) +
                                       " must be finite and > 0, got " +
                                       v.ToString());
      }
      return Status::OK();
    };
  };
  HERMES_RETURN_NOT_OK(settings->Register(
      "hermes.sigma", Value::Double(defaults.sigma),
      "default S2T spatial bandwidth sigma when the statement omits it",
      positive("hermes.sigma")));
  HERMES_RETURN_NOT_OK(settings->Register(
      "hermes.epsilon", Value::Double(defaults.epsilon),
      "default S2T cluster radius epsilon when the statement omits it",
      positive("hermes.epsilon")));
  HERMES_RETURN_NOT_OK(settings->Register(
      "hermes.use_index", Value::Int(defaults.use_index),
      "voting engine: 1/on = pg3D-Rtree index probe, 0/off = naive sweep",
      [](const Value& v) {
        if (v.AsInt() != 0 && v.AsInt() != 1) {
          return Status::InvalidArgument(
              "hermes.use_index must be 0/1 (or off/on), got " +
              v.ToString());
        }
        return Status::OK();
      }));
  HERMES_RETURN_NOT_OK(settings->Register(
      "hermes.hot_index_budget", Value::Int(defaults.hot_index_budget),
      "bytes of in-memory hot-tier index snapshots per QUT tree "
      "(0 disables the hot tier)",
      [](const Value& v) {
        if (v.AsInt() < 0) {
          return Status::InvalidArgument(
              "hermes.hot_index_budget must be >= 0 bytes, got " +
              v.ToString());
        }
        return Status::OK();
      }));
  return Status::OK();
}

}  // namespace hermes::sql
