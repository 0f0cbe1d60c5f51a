#include "datagen/generator.h"

#include <algorithm>
#include <set>
#include <cmath>
#include <cstdio>

#include "util/hashing.h"

namespace bytebrain {

namespace {

// ---------------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------------

const char* const kVerbs[] = {
    "Failed",      "Received",  "Starting",   "Stopping",  "Accepted",
    "Registered",  "Initialized", "Deleting", "Updating",  "Created",
    "Closing",     "Opened",    "Sending",    "Fetching",  "Scheduled",
    "Completed",   "Executing", "Retrying",   "Allocated", "Releasing",
    "Committed",   "Aborted",   "Verifying",  "Loading",   "Flushing",
    "Refreshing",  "Binding",   "Expired",    "Rejected",  "Throttled",
};

const char* const kNouns[] = {
    "block",     "session",   "user",      "request",  "task",
    "container", "partition", "node",      "packet",   "thread",
    "worker",    "cache",     "token",     "lease",    "replica",
    "shard",     "topic",     "channel",   "queue",    "snapshot",
    "heartbeat", "checkpoint", "region",   "segment",  "handle",
    "transaction", "volume",  "endpoint",  "listener", "pipeline",
};

const char* const kPreps[] = {"for", "from", "to", "on", "at",
                              "with", "in",  "of", "via", "by"};

const char* const kAdjs[] = {
    "remote",  "local",   "stale",    "pending", "active",
    "invalid", "expired", "corrupt",  "missing", "duplicate",
    "primary", "standby", "degraded", "unknown", "idle",
};

const char* const kComponents[] = {
    "PacketResponder", "BlockManager",   "TaskScheduler", "NameSystem",
    "ResourceManager", "DataNode",       "Executor",      "MemoryStore",
    "ShuffleFetcher",  "RpcServer",      "LeaseManager",  "FsDirectory",
    "SessionTracker",  "QuorumPeer",     "NetworkTopology", "StateMachine",
    "WalWriter",       "CompactionQueue", "IndexBuilder", "GcMonitor",
};

const char* const kKeys[] = {
    "id",    "size",  "time",     "status", "code",  "port",
    "addr",  "len",   "count",    "offset", "retries", "duration",
    "uid",   "pid",   "flags",    "ttl",    "seq",   "ver",
};

const char* const kEnumsA[] = {"success", "failed", "timeout"};
const char* const kEnumsB[] = {"true", "false"};
const char* const kEnumsC[] = {"INFO", "WARN", "ERROR", "DEBUG"};
const char* const kUsers[] = {
    "root", "admin", "guest", "hdfs", "yarn", "spark",
    "alice", "bob",  "carol", "dave", "erin", "mallory",
};
const char* const kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

template <size_t N>
const char* Pick(const char* const (&arr)[N], Rng* rng) {
  return arr[rng->NextBelow(N)];
}

// ---------------------------------------------------------------------------
// Template model
// ---------------------------------------------------------------------------

enum class VarKind {
  kInt,
  kSmallInt,    // bounded pool -> duplicates
  kHex,
  kIp,
  kIpPort,
  kUuid,
  kPath,
  kUrl,
  kFloat,
  kDurationMs,
  kQuoted,
  kHostname,
  kNullableInt, // renders "null" ~30% of the time (paper §1 adaptability)
  kEnum,
  kUser,
  kBlockId,
  kList,        // dynamic-length int list (paper §7 limitation)
};

struct TemplateToken {
  bool is_variable = false;
  std::string text;   // constant text, or "key" prefix for key=value vars
  VarKind kind = VarKind::kInt;
  uint32_t pool = 0;  // pool size for bounded kinds (0 = unbounded)
  bool keyed = false; // render as "text=value"
};

struct SyntheticTemplate {
  std::vector<TemplateToken> tokens;
};

std::string RenderValue(VarKind kind, uint32_t pool, Rng* rng) {
  char buf[96];
  const uint64_t raw = rng->Next();
  const uint64_t slot = (pool > 0) ? raw % pool : raw;
  switch (kind) {
    case VarKind::kInt:
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(slot % 100000000ULL));
      return buf;
    case VarKind::kSmallInt:
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(slot));
      return buf;
    case VarKind::kHex:
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(Mix64(slot) & 0xffffff));
      return buf;
    case VarKind::kIp:
      std::snprintf(buf, sizeof(buf), "10.%u.%u.%u",
                    static_cast<unsigned>(slot % 4),
                    static_cast<unsigned>((slot / 4) % 16),
                    static_cast<unsigned>(slot % 250 + 1));
      return buf;
    case VarKind::kIpPort:
      std::snprintf(buf, sizeof(buf), "10.%u.%u.%u:%u",
                    static_cast<unsigned>(slot % 4),
                    static_cast<unsigned>((slot / 4) % 16),
                    static_cast<unsigned>(slot % 250 + 1),
                    static_cast<unsigned>(30000 + slot % 1000));
      return buf;
    case VarKind::kUuid: {
      const uint64_t a = Mix64(slot);
      const uint64_t b = Mix64(a);
      std::snprintf(buf, sizeof(buf), "%08x-%04x-%04x-%04x-%012llx",
                    static_cast<unsigned>(a & 0xffffffff),
                    static_cast<unsigned>((a >> 32) & 0xffff),
                    static_cast<unsigned>((a >> 48) & 0xffff),
                    static_cast<unsigned>(b & 0xffff),
                    static_cast<unsigned long long>(b >> 16 & 0xffffffffffffULL));
      return buf;
    }
    case VarKind::kPath:
      std::snprintf(buf, sizeof(buf), "/var/data/part-%05u",
                    static_cast<unsigned>(slot % 977));
      return buf;
    case VarKind::kUrl:
      std::snprintf(buf, sizeof(buf), "http://svc-%u.internal:8080/api/v%u",
                    static_cast<unsigned>(slot % 40),
                    static_cast<unsigned>(slot % 3 + 1));
      return buf;
    case VarKind::kFloat:
      std::snprintf(buf, sizeof(buf), "%.2f",
                    static_cast<double>(slot % 10000) / 100.0);
      return buf;
    case VarKind::kDurationMs:
      std::snprintf(buf, sizeof(buf), "%llums",
                    static_cast<unsigned long long>(slot % 30000));
      return buf;
    case VarKind::kQuoted:
      std::snprintf(buf, sizeof(buf), "\"item %u\"",
                    static_cast<unsigned>(slot % 64));
      return buf;
    case VarKind::kHostname:
      std::snprintf(buf, sizeof(buf), "node-%03u.dc1",
                    static_cast<unsigned>(slot % 128));
      return buf;
    case VarKind::kNullableInt:
      if (raw % 10 < 3) return "null";
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(slot % 5000));
      return buf;
    case VarKind::kEnum: {
      switch (pool % 3) {
        case 0: return kEnumsA[slot % 3];
        case 1: return kEnumsB[slot % 2];
        default: return kEnumsC[slot % 4];
      }
    }
    case VarKind::kUser:
      return kUsers[slot % 12];
    case VarKind::kBlockId:
      std::snprintf(buf, sizeof(buf), "blk_%llu",
                    static_cast<unsigned long long>(1000000000ULL + slot));
      return buf;
    case VarKind::kList: {
      std::string out;
      const int n = 1 + static_cast<int>(raw % 4);
      for (int i = 0; i < n; ++i) {
        if (i > 0) out += ' ';
        char b2[16];
        std::snprintf(b2, sizeof(b2), "%u",
                      static_cast<unsigned>(rng->NextBelow(500)));
        out += b2;
      }
      return out;
    }
  }
  return "?";
}

// Builds one procedurally generated template body.
SyntheticTemplate BuildTemplate(const DatasetSpec& spec, uint32_t index,
                                Rng* rng) {
  SyntheticTemplate t;
  const int body =
      spec.min_body_tokens +
      static_cast<int>(rng->NextBelow(
          static_cast<uint64_t>(spec.max_body_tokens - spec.min_body_tokens) +
          1));

  // Leading component tag for some datasets: "BlockManager:".
  if (rng->NextBelow(100) < 45) {
    TemplateToken comp;
    comp.text = Pick(kComponents, rng);
    t.tokens.push_back(comp);
  }
  // Verb phrase start.
  {
    TemplateToken verb;
    verb.text = Pick(kVerbs, rng);
    t.tokens.push_back(verb);
  }

  static const VarKind kBodyKinds[] = {
      VarKind::kInt,      VarKind::kSmallInt, VarKind::kHex,
      VarKind::kIp,       VarKind::kIpPort,   VarKind::kUuid,
      VarKind::kPath,     VarKind::kUrl,      VarKind::kFloat,
      VarKind::kDurationMs, VarKind::kQuoted, VarKind::kHostname,
      VarKind::kNullableInt, VarKind::kEnum,  VarKind::kUser,
      VarKind::kBlockId,
  };
  static const uint32_t kPools[] = {0,  40, 200, 50, 60, 0,  40, 40,
                                    120, 80, 64, 128, 50, 3, 12, 300};

  // Real corpora are dominated by low-variable templates (the Fig. 4
  // duplication profile): roughly a third of statements print no variable
  // at all, and the rest rarely exceed a handful. Capping the variable
  // count keeps joint variable combinations bounded so exact duplicates
  // arise naturally.
  const uint64_t var_budget_roll = rng->NextBelow(100);
  int variables_left =
      var_budget_roll < 35 ? 0 : 1 + static_cast<int>(rng->NextBelow(4));
  for (int i = 0; i < body; ++i) {
    const uint64_t roll = rng->NextBelow(100);
    TemplateToken tok;
    if (roll < 30 && variables_left > 0) {
      // Variable token.
      --variables_left;
      const size_t k = rng->NextBelow(16);
      tok.is_variable = true;
      tok.kind = kBodyKinds[k];
      tok.pool = kPools[k];
      if (rng->NextBelow(100) < 40) {
        tok.keyed = true;
        tok.text = Pick(kKeys, rng);
      }
    } else if (roll < 58) {
      tok.text = Pick(kNouns, rng);
    } else if (roll < 72) {
      tok.text = Pick(kPreps, rng);
    } else if (roll < 84) {
      tok.text = Pick(kAdjs, rng);
    } else {
      tok.text = Pick(kVerbs, rng);
    }
    t.tokens.push_back(tok);
  }

  // Optionally close with a dynamic-length list variable.
  const double list_roll =
      static_cast<double>(Mix64(spec.seed ^ index) % 1000) / 1000.0;
  if (list_roll < spec.dynamic_list_fraction) {
    TemplateToken tail;
    tail.text = "items";
    t.tokens.push_back(tail);
    TemplateToken list;
    list.is_variable = true;
    list.kind = VarKind::kList;
    t.tokens.push_back(list);
  }
  return t;
}

// Handcrafted Android lock templates reproducing the paper's Table 4
// workload (release/acquire lock lines with correlated name/ws fields).
void AddAndroidLockTemplates(std::vector<SyntheticTemplate>* templates) {
  for (const char* action : {"release", "acquire"}) {
    SyntheticTemplate t;
    auto cst = [&t](std::string s) {
      TemplateToken tok;
      tok.text = std::move(s);
      t.tokens.push_back(tok);
    };
    auto var = [&t](VarKind k, uint32_t pool, const char* key) {
      TemplateToken tok;
      tok.is_variable = true;
      tok.kind = k;
      tok.pool = pool;
      if (key != nullptr) {
        tok.keyed = true;
        tok.text = key;
      }
      t.tokens.push_back(tok);
    };
    cst(action);
    var(VarKind::kSmallInt, 2500, "lock");
    var(VarKind::kHex, 4, std::string(action) == "release" ? "flg" : "flags");
    var(VarKind::kQuoted, 8, "tag");
    var(VarKind::kUser, 0, "name");
    var(VarKind::kNullableInt, 40, "ws");
    var(VarKind::kSmallInt, 200, "uid");
    var(VarKind::kSmallInt, 400, "pid");
    templates->push_back(std::move(t));
  }
}

// Dataset-flavored handcrafted templates for realism (a few per dataset).
void AddFlavoredTemplates(const DatasetSpec& spec,
                          std::vector<SyntheticTemplate>* templates) {
  auto make = [templates](std::initializer_list<TemplateToken> toks) {
    SyntheticTemplate t;
    t.tokens.assign(toks);
    templates->push_back(std::move(t));
  };
  auto C = [](const char* s) {
    TemplateToken t;
    t.text = s;
    return t;
  };
  auto V = [](VarKind k, uint32_t pool = 0, const char* key = nullptr) {
    TemplateToken t;
    t.is_variable = true;
    t.kind = k;
    t.pool = pool;
    if (key != nullptr) {
      t.keyed = true;
      t.text = key;
    }
    return t;
  };

  if (spec.name == "HDFS") {
    make({C("Receiving"), C("block"), V(VarKind::kBlockId, 4000), C("src"),
          V(VarKind::kIpPort, 60), C("dest"), V(VarKind::kIpPort, 60)});
    make({C("PacketResponder"), V(VarKind::kSmallInt, 3), C("for"), C("block"),
          V(VarKind::kBlockId, 4000), C("terminating")});
    make({C("BLOCK*"), C("NameSystem.addStoredBlock:"), C("blockMap"),
          C("updated:"), V(VarKind::kIpPort, 60), C("is"), C("added"),
          C("to"), V(VarKind::kBlockId, 4000), C("size"),
          V(VarKind::kInt, 0)});
  } else if (spec.name == "OpenSSH") {
    make({C("Accepted"), C("password"), C("for"), V(VarKind::kUser), C("from"),
          V(VarKind::kIp, 50), C("port"), V(VarKind::kInt, 3000), C("ssh2")});
    make({C("Failed"), C("password"), C("for"), C("invalid"), C("user"),
          V(VarKind::kUser), C("from"), V(VarKind::kIp, 50), C("port"),
          V(VarKind::kInt, 3000), C("ssh2")});
    make({C("pam_unix(sshd:session):"), C("session"), C("opened"), C("for"),
          C("user"), V(VarKind::kUser), C("by"), C("(uid=0)")});
  } else if (spec.name == "Apache") {
    make({C("jk2_init()"), C("Found"), C("child"), V(VarKind::kSmallInt, 900),
          C("in"), C("scoreboard"), C("slot"), V(VarKind::kSmallInt, 12)});
    make({C("workerEnv.init()"), C("ok"), V(VarKind::kPath, 30)});
    make({C("mod_jk"), C("child"), C("workerEnv"), C("in"), C("error"),
          C("state"), V(VarKind::kSmallInt, 8)});
  } else if (spec.name == "Spark") {
    make({C("Got"), C("assigned"), C("task"), V(VarKind::kInt, 0)});
    make({C("Found"), C("block"), V(VarKind::kBlockId, 2000), C("locally")});
    make({C("MemoryStore"), C("Block"), V(VarKind::kBlockId, 2000),
          C("stored"), C("as"), C("values"), C("in"), C("memory"),
          C("estimated"), C("size"), V(VarKind::kFloat, 500), C("KB"),
          C("free"), V(VarKind::kFloat, 2000), C("MB")});
  } else if (spec.name == "Proxifier") {
    make({V(VarKind::kHostname, 40), C("open"), C("through"), C("proxy"),
          V(VarKind::kHostname, 4), C("HTTPS")});
    make({V(VarKind::kHostname, 40), C("close"), V(VarKind::kInt, 0),
          C("bytes"), C("sent"), V(VarKind::kInt, 0), C("bytes"),
          C("received"), C("lifetime"), V(VarKind::kDurationMs, 600)});
  } else if (spec.name == "Android") {
    AddAndroidLockTemplates(templates);
  }
}

// Zipfian sampler over [0, n): weight(i) = 1/(i+1)^s, sampled by inverse
// CDF binary search. Template ranks are shuffled so frequent templates
// are scattered across the id space — except the first `pinned_top`
// template ids (the handcrafted, dataset-flavored ones), which are
// guaranteed the highest-frequency ranks so every corpus exercises them.
class ZipfSampler {
 public:
  /// `pinned_top`: template ids 0..pinned_top-1 (the handcrafted ones)
  /// receive the highest-frequency ranks. `pinned_tail`: these template
  /// ids receive the lowest-frequency ranks — used for dynamic-length
  /// list templates, which exist in real corpora but sit in the tail
  /// (a head-mass list template would crater every syntax parser's GA,
  /// which the paper's per-dataset numbers rule out).
  ZipfSampler(size_t n, double s, Rng* rng, size_t pinned_top = 0,
              std::vector<uint32_t> pinned_tail = {})
      : cdf_(n) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& v : cdf_) v /= acc;
    pinned_top = std::min(pinned_top, n);

    std::vector<bool> in_tail(n, false);
    for (uint32_t id : pinned_tail) {
      if (id >= pinned_top && id < n) in_tail[id] = true;
    }
    std::vector<uint32_t> head;
    std::vector<uint32_t> middle;
    std::vector<uint32_t> tail;
    for (uint32_t i = 0; i < n; ++i) {
      if (i < pinned_top) {
        head.push_back(i);
      } else if (in_tail[i]) {
        tail.push_back(i);
      } else {
        middle.push_back(i);
      }
    }
    auto shuffle = [rng](std::vector<uint32_t>* v) {
      for (size_t i = v->size(); i > 1; --i) {
        std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
      }
    };
    shuffle(&head);
    shuffle(&middle);
    shuffle(&tail);
    perm_.reserve(n);
    perm_.insert(perm_.end(), head.begin(), head.end());
    perm_.insert(perm_.end(), middle.begin(), middle.end());
    perm_.insert(perm_.end(), tail.begin(), tail.end());
  }

  uint32_t Sample(Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const size_t rank = std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
    return perm_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> perm_;
};

}  // namespace

std::string RenderPreamble(PreambleStyle style, Rng* rng) {
  char buf[128];
  const unsigned mon = static_cast<unsigned>(rng->NextBelow(12));
  const unsigned day = static_cast<unsigned>(rng->NextBelow(28) + 1);
  const unsigned hh = static_cast<unsigned>(rng->NextBelow(24));
  const unsigned mm = static_cast<unsigned>(rng->NextBelow(60));
  const unsigned ss = static_cast<unsigned>(rng->NextBelow(60));
  const unsigned ms = static_cast<unsigned>(rng->NextBelow(1000));
  const unsigned pid = static_cast<unsigned>(rng->NextBelow(30000) + 100);
  switch (style) {
    case PreambleStyle::kSyslog:
      std::snprintf(buf, sizeof(buf), "%s %2u %02u:%02u:%02u host-%02u daemon[%u]: ",
                    kMonths[mon], day, hh, mm, ss,
                    static_cast<unsigned>(rng->NextBelow(16)), pid);
      return buf;
    case PreambleStyle::kBracketed:
      std::snprintf(buf, sizeof(buf),
                    "[%s %s %02u %02u:%02u:%02u 2026] [%s] ", "Mon",
                    kMonths[mon], day, hh, mm, ss,
                    (rng->NextBelow(4) == 0) ? "error" : "notice");
      return buf;
    case PreambleStyle::kIso:
      std::snprintf(buf, sizeof(buf), "2026-%02u-%02u %02u:%02u:%02u,%03u %s ",
                    mon + 1, day, hh, mm, ss, ms, kEnumsC[rng->NextBelow(4)]);
      return buf;
    case PreambleStyle::kAndroid:
      std::snprintf(buf, sizeof(buf), "%02u-%02u %02u:%02u:%02u.%03u %5u %5u I ",
                    mon + 1, day, hh, mm, ss, ms, pid,
                    pid + static_cast<unsigned>(rng->NextBelow(64)));
      return buf;
    case PreambleStyle::kBgl:
      std::snprintf(buf, sizeof(buf),
                    "- %u 2026.%02u.%02u R%02u-M%u-N%u RAS KERNEL INFO ",
                    1700000000u + static_cast<unsigned>(rng->NextBelow(1000000)),
                    mon + 1, day, static_cast<unsigned>(rng->NextBelow(32)),
                    static_cast<unsigned>(rng->NextBelow(2)),
                    static_cast<unsigned>(rng->NextBelow(16)));
      return buf;
    case PreambleStyle::kPlain:
      return "";
  }
  return "";
}

Dataset DatasetGenerator::Generate(const GenOptions& options) const {
  Rng rng(HashCombine(spec_.seed, options.seed_salt ^ 0xD474ULL));

  // Build the template set: flavored handcrafted ones first, then
  // procedural ones until the requested count.
  std::vector<SyntheticTemplate> templates;
  AddFlavoredTemplates(spec_, &templates);
  if (templates.size() > options.num_templates) {
    templates.resize(std::max<size_t>(options.num_templates, 1));
  }
  const size_t num_flavored = templates.size();
  // Ground-truth integrity: two templates must not share the same token
  // SHAPE (constants + variable positions), or no parser — nor the
  // labels themselves — could tell them apart. Colliding procedural
  // templates get a distinguishing constant appended.
  auto shape_of = [](const SyntheticTemplate& t) {
    std::string s;
    for (const TemplateToken& tok : t.tokens) {
      if (tok.is_variable && !tok.keyed) {
        s += '*';
      } else {
        s += tok.text;
        if (tok.is_variable) s += "=*";
      }
      s += '\x1f';
    }
    return s;
  };
  std::set<std::string> shapes;
  for (const SyntheticTemplate& t : templates) shapes.insert(shape_of(t));
  for (uint32_t i = static_cast<uint32_t>(templates.size());
       i < options.num_templates; ++i) {
    SyntheticTemplate t = BuildTemplate(spec_, i, &rng);
    if (!shapes.insert(shape_of(t)).second) {
      TemplateToken tag;
      tag.text = "evt" + std::to_string(i);
      t.tokens.push_back(tag);
      shapes.insert(shape_of(t));
    }
    templates.push_back(std::move(t));
  }

  std::vector<uint32_t> list_template_ids;
  for (uint32_t i = 0; i < templates.size(); ++i) {
    for (const TemplateToken& tok : templates[i].tokens) {
      if (tok.is_variable && tok.kind == VarKind::kList) {
        list_template_ids.push_back(i);
        break;
      }
    }
  }
  ZipfSampler sampler(templates.size(), options.zipf_exponent, &rng,
                      num_flavored, std::move(list_template_ids));

  Dataset ds;
  ds.name = spec_.name;
  ds.num_templates = templates.size();
  ds.logs.reserve(options.num_logs);

  std::string text;
  for (size_t i = 0; i < options.num_logs; ++i) {
    const uint32_t tid = sampler.Sample(&rng);
    const SyntheticTemplate& t = templates[tid];
    text.clear();
    if (options.include_preamble) {
      text = RenderPreamble(spec_.preamble, &rng);
    }
    bool first = true;
    for (const TemplateToken& tok : t.tokens) {
      if (!first) text += ' ';
      first = false;
      if (!tok.is_variable) {
        text += tok.text;
      } else if (tok.keyed) {
        text += tok.text;
        text += '=';
        text += RenderValue(tok.kind, tok.pool, &rng);
      } else {
        text += RenderValue(tok.kind, tok.pool, &rng);
      }
    }
    ds.logs.push_back({text, tid});
  }
  return ds;
}

Dataset DatasetGenerator::GenerateLogHub() const {
  GenOptions opts;
  opts.num_logs = spec_.loghub_logs;
  opts.num_templates = spec_.loghub_templates;
  opts.seed_salt = 1;
  return Generate(opts);
}

Dataset DatasetGenerator::GenerateLogHub2(double scale) const {
  GenOptions opts;
  opts.num_logs = static_cast<size_t>(
      std::max(1.0, static_cast<double>(spec_.loghub2_logs) * scale));
  opts.num_templates = spec_.loghub2_templates;
  opts.seed_salt = 2;
  return Generate(opts);
}

std::vector<std::string> GenerateInterleavedMix(
    const std::vector<DatasetSpec>& specs, size_t per_dataset,
    uint64_t salt) {
  std::vector<std::vector<LabeledLog>> sets;
  for (const DatasetSpec& spec : specs) {
    GenOptions opts;
    opts.num_logs = per_dataset;
    opts.num_templates = spec.loghub_templates;
    opts.include_preamble = true;
    opts.seed_salt = salt;
    sets.push_back(DatasetGenerator(spec).Generate(opts).logs);
  }
  std::vector<std::string> logs;
  logs.reserve(specs.size() * per_dataset);
  for (size_t i = 0; i < per_dataset; ++i) {
    for (auto& set : sets) {
      if (i < set.size()) logs.push_back(std::move(set[i].text));
    }
  }
  return logs;
}

}  // namespace bytebrain
