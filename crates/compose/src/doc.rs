//! The declarative system-description model.
//!
//! A [`ComposeDoc`] is the parsed form of the `[compose]` /
//! `[[domain]]` / `[[channel]]` / `[[region]]` sections of a
//! description file (either standalone or embedded in a campaign
//! scenario). Parsing follows the campaign loader's discipline: it is
//! *lenient* about unknown keys (the linter flags them) but *strict*
//! about the values of known keys, and [`ComposeDoc::to_toml`] is the
//! exact inverse of [`ComposeDoc::from_doc`] so descriptions round-trip
//! byte-for-byte through the model.

use std::fmt;

use hypernel_kernel::compose::MAX_CHANNELS;
use hypernel_kernel::DomainRole;
use hypernel_machine::addr::PAGE_SIZE;

use crate::toml::{TomlTable, TomlValue};

/// One declared protection domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDecl {
    /// Unique domain name (referenced by channels and regions).
    pub name: String,
    /// Passive server or client task.
    pub role: DomainRole,
    /// Scheduling priority metadata.
    pub priority: u64,
    /// Number of kernel tasks backing the domain (≥ 1).
    pub tasks: u64,
}

/// One declared channel between two domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDecl {
    /// Unique channel name.
    pub name: String,
    /// Sending domain.
    pub from: String,
    /// Receiving domain.
    pub to: String,
    /// Declared queue capacity metadata (≥ 1).
    pub capacity: u64,
}

/// One declared shared memory region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDecl {
    /// Unique region name.
    pub name: String,
    /// Owning domain (maps the region writable-owned).
    pub owner: String,
    /// Domains the region is shared into (besides the owner).
    pub share: Vec<String>,
    /// Region size in pages (≥ 1).
    pub pages: u64,
    /// Whether the derived watch set covers the region.
    pub protect: bool,
    /// Explicit base virtual address, or `None` for automatic
    /// assignment from the compose window.
    pub va: Option<u64>,
}

/// A complete system description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposeDoc {
    /// Whether lowering arms the derived watch set (`[compose] watch`,
    /// default `true`; registration still requires the mode to have
    /// monitor hooks).
    pub watch: bool,
    /// Declared domains, in file order.
    pub domains: Vec<DomainDecl>,
    /// Declared channels, in file order.
    pub channels: Vec<ChannelDecl>,
    /// Declared regions, in file order.
    pub regions: Vec<RegionDecl>,
}

impl Default for ComposeDoc {
    fn default() -> Self {
        Self {
            watch: true,
            domains: Vec::new(),
            channels: Vec::new(),
            regions: Vec::new(),
        }
    }
}

/// A description parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposeError {
    /// Human-readable cause, innermost first.
    pub message: String,
}

impl ComposeError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    fn context(self, outer: impl fmt::Display) -> Self {
        Self {
            message: format!("{outer}: {}", self.message),
        }
    }
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ComposeError {}

impl From<String> for ComposeError {
    fn from(message: String) -> Self {
        Self::new(message)
    }
}

fn require_str(t: &TomlTable, key: &str) -> Result<String, ComposeError> {
    t.read_str(key)?
        .map(str::to_string)
        .ok_or_else(|| ComposeError::new(format!("missing `{key}`")))
}

impl ComposeDoc {
    /// Extracts the compose sections from a parsed document, or `None`
    /// when the document declares nothing compose-related.
    ///
    /// # Errors
    ///
    /// Returns a [`ComposeError`] for missing required fields or
    /// unknown enum values. Structural problems (dangling references,
    /// overlaps) are left to [`ComposeDoc::validate`] so lenient
    /// loading matches the campaign loader's discipline.
    pub fn from_doc(doc: &TomlTable) -> Result<Option<Self>, ComposeError> {
        let present = doc.table("compose").is_some()
            || !doc.array("domain").is_empty()
            || !doc.array("channel").is_empty()
            || !doc.array("region").is_empty();
        if !present {
            return Ok(None);
        }
        let mut out = Self::default();
        if let Some(t) = doc.table("compose") {
            out.watch = t
                .read_bool("watch")
                .map_err(|e| ComposeError::new(e).context("[compose]"))?
                .unwrap_or(true);
        }
        for (i, t) in doc.array("domain").iter().enumerate() {
            let decl = parse_domain(t).map_err(|e| e.context(format!("domain {}", i + 1)))?;
            out.domains.push(decl);
        }
        for (i, t) in doc.array("channel").iter().enumerate() {
            let decl = parse_channel(t).map_err(|e| e.context(format!("channel {}", i + 1)))?;
            out.channels.push(decl);
        }
        for (i, t) in doc.array("region").iter().enumerate() {
            let decl = parse_region(t).map_err(|e| e.context(format!("region {}", i + 1)))?;
            out.regions.push(decl);
        }
        Ok(Some(out))
    }

    /// Parses a standalone description file (which must declare at
    /// least one compose section).
    ///
    /// # Errors
    ///
    /// Returns a [`ComposeError`] for syntax errors, missing compose
    /// sections, or field errors.
    pub fn from_toml(input: &str) -> Result<Self, ComposeError> {
        let doc = crate::toml::parse(input).map_err(|e| ComposeError::new(e.to_string()))?;
        Self::from_doc(&doc)?
            .ok_or_else(|| ComposeError::new("no compose sections ([compose] / [[domain]] / ...)"))
    }

    /// Serializes the description back into its TOML form, emitting
    /// only keys the linter knows and only non-default values. Exact
    /// inverse of [`ComposeDoc::from_doc`], and a fixpoint:
    /// re-emitting a parsed emission reproduces it byte-for-byte.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[compose]");
        let _ = writeln!(out, "watch = {}", self.watch);
        for d in &self.domains {
            let _ = writeln!(out, "\n[[domain]]");
            let _ = writeln!(out, "name = {}", toml_str(&d.name));
            let _ = writeln!(out, "role = \"{}\"", d.role.name());
            if d.priority != 0 {
                let _ = writeln!(out, "priority = {}", d.priority);
            }
            if d.tasks != 1 {
                let _ = writeln!(out, "tasks = {}", d.tasks);
            }
        }
        for c in &self.channels {
            let _ = writeln!(out, "\n[[channel]]");
            let _ = writeln!(out, "name = {}", toml_str(&c.name));
            let _ = writeln!(out, "from = {}", toml_str(&c.from));
            let _ = writeln!(out, "to = {}", toml_str(&c.to));
            if c.capacity != 16 {
                let _ = writeln!(out, "capacity = {}", c.capacity);
            }
        }
        for r in &self.regions {
            let _ = writeln!(out, "\n[[region]]");
            let _ = writeln!(out, "name = {}", toml_str(&r.name));
            let _ = writeln!(out, "owner = {}", toml_str(&r.owner));
            if !r.share.is_empty() {
                let items: Vec<String> = r.share.iter().map(|s| toml_str(s)).collect();
                let _ = writeln!(out, "share = [{}]", items.join(", "));
            }
            if r.pages != 1 {
                let _ = writeln!(out, "pages = {}", r.pages);
            }
            if r.protect {
                let _ = writeln!(out, "protect = true");
            }
            if let Some(va) = r.va {
                let _ = writeln!(out, "va = 0x{va:X}");
            }
        }
        out
    }

    /// Structural validation: every problem found, in a stable order.
    /// An empty result means the description lowers cleanly on any
    /// booted kernel with enough frames.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.domains.is_empty() {
            problems.push("compose: declares no domains".to_string());
        }
        check_duplicates(
            &mut problems,
            "domain",
            self.domains.iter().map(|d| &d.name),
        );
        check_duplicates(
            &mut problems,
            "channel",
            self.channels.iter().map(|c| &c.name),
        );
        check_duplicates(
            &mut problems,
            "region",
            self.regions.iter().map(|r| &r.name),
        );
        let known = |name: &str| self.domains.iter().any(|d| d.name == name);
        for d in &self.domains {
            if d.tasks == 0 {
                problems.push(format!("domain `{}`: `tasks` must be ≥ 1", d.name));
            }
        }
        if self.channels.len() > MAX_CHANNELS {
            problems.push(format!(
                "compose: {} channels exceed the {MAX_CHANNELS}-channel table",
                self.channels.len()
            ));
        }
        for c in &self.channels {
            for (end, domain) in [("from", &c.from), ("to", &c.to)] {
                if !known(domain) {
                    problems.push(format!(
                        "channel `{}`: `{end}` references unknown domain `{domain}`",
                        c.name
                    ));
                }
            }
            if c.capacity == 0 {
                problems.push(format!("channel `{}`: `capacity` must be ≥ 1", c.name));
            }
        }
        // Assign every region its VA interval (explicit, or automatic
        // from the compose window in declaration order — mirroring the
        // lowering exactly) and reject overlaps.
        let mut intervals: Vec<(u64, u64, &str)> = Vec::new();
        let mut next_auto = hypernel_kernel::compose::REGION_VA_BASE;
        for r in &self.regions {
            if !known(&r.owner) {
                problems.push(format!(
                    "region `{}`: `owner` references unknown domain `{}`",
                    r.name, r.owner
                ));
            }
            for s in &r.share {
                if !known(s) {
                    problems.push(format!(
                        "region `{}`: `share` references unknown domain `{s}`",
                        r.name
                    ));
                }
                if *s == r.owner {
                    problems.push(format!(
                        "region `{}`: `share` repeats the owner `{s}`",
                        r.name
                    ));
                }
            }
            if r.pages == 0 {
                problems.push(format!("region `{}`: `pages` must be ≥ 1", r.name));
                continue;
            }
            let base = match r.va {
                Some(va) => {
                    if va % PAGE_SIZE != 0 {
                        problems.push(format!(
                            "region `{}`: `va` 0x{va:X} is not page-aligned",
                            r.name
                        ));
                        continue;
                    }
                    if va == 0 {
                        problems.push(format!("region `{}`: `va` must be nonzero", r.name));
                        continue;
                    }
                    va
                }
                None => {
                    let va = next_auto;
                    next_auto += r.pages * PAGE_SIZE;
                    va
                }
            };
            let end = base + r.pages * PAGE_SIZE;
            for (other_base, other_end, other_name) in &intervals {
                if base < *other_end && *other_base < end {
                    problems.push(format!(
                        "region `{}`: overlaps region `{other_name}` at 0x{:X}",
                        r.name,
                        base.max(*other_base)
                    ));
                }
            }
            intervals.push((base, end, &r.name));
        }
        problems
    }
}

/// Quotes a TOML basic string (the subset has no escapes; embedded
/// quotes are replaced, matching the scenario serializer).
fn toml_str(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "'"))
}

fn check_duplicates<'a>(
    problems: &mut Vec<String>,
    kind: &str,
    names: impl Iterator<Item = &'a String>,
) {
    let mut seen: Vec<&str> = Vec::new();
    for name in names {
        if seen.contains(&name.as_str()) {
            problems.push(format!("{kind} `{name}`: duplicate name"));
        } else {
            seen.push(name);
        }
    }
}

fn parse_domain(t: &TomlTable) -> Result<DomainDecl, ComposeError> {
    let role = match t.read_str("role")?.unwrap_or("client") {
        "server" => DomainRole::Server,
        "client" => DomainRole::Client,
        other => {
            return Err(ComposeError::new(format!(
                "unknown role `{other}` (server | client)"
            )))
        }
    };
    Ok(DomainDecl {
        name: require_str(t, "name")?,
        role,
        priority: t.read_u64("priority")?.unwrap_or(0),
        tasks: t.read_u64("tasks")?.unwrap_or(1),
    })
}

fn parse_channel(t: &TomlTable) -> Result<ChannelDecl, ComposeError> {
    Ok(ChannelDecl {
        name: require_str(t, "name")?,
        from: require_str(t, "from")?,
        to: require_str(t, "to")?,
        capacity: t.read_u64("capacity")?.unwrap_or(16),
    })
}

fn parse_region(t: &TomlTable) -> Result<RegionDecl, ComposeError> {
    let share = match t.get("share") {
        None => Vec::new(),
        Some(TomlValue::Array(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ComposeError::new("`share` must be an array of strings"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err(ComposeError::new("`share` must be an array of strings")),
    };
    Ok(RegionDecl {
        name: require_str(t, "name")?,
        owner: require_str(t, "owner")?,
        share,
        pages: t.read_u64("pages")?.unwrap_or(1),
        protect: t.read_bool("protect")?.unwrap_or(false),
        va: t.read_u64("va")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ComposeDoc {
        ComposeDoc {
            watch: true,
            domains: vec![
                DomainDecl {
                    name: "fs".into(),
                    role: DomainRole::Server,
                    priority: 10,
                    tasks: 1,
                },
                DomainDecl {
                    name: "net".into(),
                    role: DomainRole::Server,
                    priority: 9,
                    tasks: 2,
                },
                DomainDecl {
                    name: "app".into(),
                    role: DomainRole::Client,
                    priority: 0,
                    tasks: 1,
                },
            ],
            channels: vec![
                ChannelDecl {
                    name: "app-fs".into(),
                    from: "app".into(),
                    to: "fs".into(),
                    capacity: 16,
                },
                ChannelDecl {
                    name: "app-net".into(),
                    from: "app".into(),
                    to: "net".into(),
                    capacity: 8,
                },
            ],
            regions: vec![RegionDecl {
                name: "shared".into(),
                owner: "fs".into(),
                share: vec!["app".into()],
                pages: 2,
                protect: true,
                va: None,
            }],
        }
    }

    #[test]
    fn to_toml_round_trips_exactly() {
        let doc = demo();
        let text = doc.to_toml();
        let reparsed = ComposeDoc::from_toml(&text).expect("parses");
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.to_toml(), text, "emission is a fixpoint");
    }

    #[test]
    fn validate_accepts_the_demo_and_catches_structural_problems() {
        assert_eq!(demo().validate(), Vec::<String>::new());
        let mut bad = demo();
        bad.channels[0].to = "ghost".into();
        bad.regions.push(RegionDecl {
            name: "shared".into(),
            owner: "app".into(),
            share: vec!["app".into()],
            pages: 1,
            va: Some(hypernel_kernel::compose::REGION_VA_BASE + PAGE_SIZE),
            protect: false,
        });
        let problems = bad.validate();
        assert!(problems
            .iter()
            .any(|p| p.contains("unknown domain `ghost`")));
        assert!(problems.iter().any(|p| p.contains("duplicate name")));
        assert!(problems.iter().any(|p| p.contains("repeats the owner")));
        assert!(problems.iter().any(|p| p.contains("overlaps region")));
    }

    #[test]
    fn absent_sections_mean_no_doc() {
        let doc = crate::toml::parse("name = \"x\"").expect("parses");
        assert_eq!(ComposeDoc::from_doc(&doc).expect("ok"), None);
    }

    #[test]
    fn defaults_match_the_schema() {
        let doc = ComposeDoc::from_toml("[compose]\n[[domain]]\nname = \"a\"").expect("parses");
        assert!(doc.watch);
        let d = &doc.domains[0];
        assert_eq!(
            (d.role, d.priority, d.tasks),
            (DomainRole::Client, 0, 1),
            "domain defaults"
        );
    }
}
