#ifndef HERMES_SQL_SETTINGS_H_
#define HERMES_SQL_SETTINGS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "sql/value.h"

namespace hermes::sql {

/// \brief PostgreSQL-GUC-style registry of run-time settings.
///
/// Each setting is registered once with a canonical (lower-case) name, a
/// typed default, a one-line description, and optional hooks:
///
///  - `validate` runs on every `Set` after type coercion and rejects
///    out-of-domain values with `InvalidArgument` *before* any state
///    changes (the boundary check the old hard-coded `threads_` lacked);
///  - `on_change` runs after the value is stored, letting the owner react
///    (e.g. the session swapping its `ExecContext`). If the hook fails the
///    previous value is restored and the error propagated.
///
/// `Set` coerces numerics to the registered type: an integral double is
/// accepted for an int setting, an int is widened for a double setting;
/// anything else (non-integral double for an int, a string for a numeric)
/// is an `InvalidArgument`. New knobs therefore need *no* parser or
/// executor surgery — `SET hermes.<name> = v` and `SHOW` are generic.
class Settings {
 public:
  using Validator = std::function<Status(const Value&)>;
  using OnChange = std::function<Status(const Value&)>;

  struct Setting {
    std::string name;  ///< Canonical lower-case, e.g. "hermes.threads".
    std::string description;
    Value value;
    Value default_value;
    Validator validate;   ///< Optional domain check.
    OnChange on_change;   ///< Optional owner reaction.

    ValueType type() const { return default_value.type(); }
  };

  /// Registers a setting at its default. Fails with `AlreadyExists` on a
  /// duplicate name, `InvalidArgument` on a null default, and with
  /// `validate`'s error when the default is outside the setting's domain
  /// (so a default can never hold a value `Set` would reject).
  Status Register(std::string name, Value default_value,
                  std::string description, Validator validate = nullptr,
                  OnChange on_change = nullptr);

  /// Coerces, validates, stores, then fires `on_change`. Name lookup is
  /// case-insensitive; unknown names are `NotSupported` (so callers can
  /// distinguish "no such knob" from "bad value").
  Status Set(const std::string& name, Value v);

  /// Current value, or `NotSupported` for unknown names.
  StatusOr<Value> Get(const std::string& name) const;

  /// Registered setting by case-insensitive name, or nullptr.
  const Setting* Find(const std::string& name) const;

  /// All registered settings in name order.
  std::vector<const Setting*> All() const;

  /// Lower-cases a setting name (the canonical registry key).
  static std::string Canonical(const std::string& name);

 private:
  std::map<std::string, Setting> settings_;
};

/// \brief Defaults for the standard `hermes.*` knobs. The service server
/// keeps one of these and hands it to every new client session, so fresh
/// sessions start from the server's configuration while staying free to
/// diverge via their own `SET`s.
struct HermesSettingDefaults {
  int64_t threads = 1;
  double sigma = 100.0;
  double epsilon = 200.0;
  int64_t use_index = 1;
  /// Bytes of in-memory hot-tier index snapshots a ReTraTree may keep
  /// (0 disables the hot tier); see core::kDefaultHotIndexBudget.
  int64_t hot_index_budget = 64 * 1024 * 1024;
};

/// \brief Registers the standard `hermes.*` knobs (threads / sigma /
/// epsilon / use_index) into `settings` with the shared validators.
///
/// Every owner — the embedded `sql::Session` and each
/// `service::ClientSession` — registers into its *own* `Settings`
/// instance: settings are session-scoped state, never process-global, so
/// two sessions with different `hermes.threads` or bandwidths cannot
/// interfere. `on_threads_change` (optional) fires after `hermes.threads`
/// passes validation, letting the owner swap its `ExecContext`.
Status RegisterHermesSettings(Settings* settings,
                              const HermesSettingDefaults& defaults,
                              std::function<Status(size_t)> on_threads_change);

}  // namespace hermes::sql

#endif  // HERMES_SQL_SETTINGS_H_
