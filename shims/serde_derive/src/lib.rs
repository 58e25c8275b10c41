//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline
//! serde shim.
//!
//! Implemented directly on `proc_macro::TokenStream` (the build container
//! has no `syn`/`quote`), so only the item shapes this workspace actually
//! derives are supported:
//!
//! - structs with named fields,
//! - tuple structs (newtype structs serialise transparently),
//! - unit structs,
//! - enums with unit, tuple and struct variants.
//!
//! Generics and `#[serde(...)]` attributes are rejected with a compile
//! error rather than silently mis-handled.

#![expect(
    clippy::panic,
    clippy::expect_used,
    reason = "vendored stand-in for an external crate: the workspace lint policy covers this project's own code"
)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (value-tree flavour; see the `serde` shim).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Direction::Serialize)
}

/// Derives `serde::Deserialize` (value-tree flavour; see the `serde` shim).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Direction::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Serialize,
    Deserialize,
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn expand(input: TokenStream, dir: Direction) -> TokenStream {
    let (name, shape) = match parse_item(input) {
        Ok(parsed) => parsed,
        Err(msg) => {
            return format!("compile_error!({msg:?});")
                .parse()
                .expect("literal error");
        }
    };
    let code = match dir {
        Direction::Serialize => gen_serialize(&name, &shape),
        Direction::Deserialize => gen_deserialize(&name, &shape),
    };
    code.parse()
        .unwrap_or_else(|e| panic!("serde_derive generated invalid Rust for {name}: {e:?}\n{code}"))
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Skips outer attributes (`#[...]`, including doc comments) and a
/// visibility qualifier at position `i`.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match (tokens.get(*i), tokens.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                *i += 2;
            }
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = next {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // pub(crate) / pub(super) / ...
                    }
                }
            }
            _ => return,
        }
    }
}

fn parse_item(input: TokenStream) -> Result<(String, Shape), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive does not support generic type `{name}`"
            ));
        }
    }

    let shape = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::NamedStruct(parse_field_names(g.stream())?)
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::TupleStruct(count_top_level_items(g.stream()))
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Shape::UnitStruct,
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Enum(parse_variants(g.stream())?)
        }
        (_, other) => {
            return Err(format!(
                "serde shim derive cannot handle `{kind} {name}` body {other:?}"
            ))
        }
    };
    Ok((name, shape))
}

/// Splits a delimited token stream into top-level comma-separated chunks.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut depth = 0i32;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                chunks.push(Vec::new());
                continue;
            }
            _ => {}
        }
        chunks.last_mut().expect("non-empty").push(t);
    }
    if chunks.last().map(Vec::is_empty).unwrap_or(false) {
        chunks.pop(); // trailing comma
    }
    chunks
}

fn count_top_level_items(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

fn parse_field_names(stream: TokenStream) -> Result<Vec<String>, String> {
    split_top_level(stream)
        .into_iter()
        .map(|chunk| {
            let mut i = 0;
            skip_attrs_and_vis(&chunk, &mut i);
            match chunk.get(i) {
                Some(TokenTree::Ident(id)) => Ok(id.to_string()),
                other => Err(format!("expected field name, found {other:?}")),
            }
        })
        .collect()
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    split_top_level(stream)
        .into_iter()
        .map(|chunk| {
            let mut i = 0;
            skip_attrs_and_vis(&chunk, &mut i);
            let name = match chunk.get(i) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => return Err(format!("expected variant name, found {other:?}")),
            };
            i += 1;
            let shape = match chunk.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    VariantShape::Named(parse_field_names(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    VariantShape::Tuple(count_top_level_items(g.stream()))
                }
                None => VariantShape::Unit,
                Some(TokenTree::Punct(p)) if p.as_char() == '=' => VariantShape::Unit,
                other => return Err(format!("unexpected variant body {other:?}")),
            };
            Ok(Variant { name, shape })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Code generation (string templates parsed back into a TokenStream)
// ---------------------------------------------------------------------

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})),"))
                .collect();
            format!("::serde::Value::Object(vec![{pushes}])")
        }
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let items: String = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                .collect();
            format!("::serde::Value::Array(vec![{items}])")
        }
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),"
                        ),
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vn}(x0) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Serialize::to_value(x0))]),"
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            let items: String = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b}),"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Array(vec![{items}]))]),",
                                binds.join(", ")
                            )
                        }
                        VariantShape::Named(fields) => {
                            let binds = fields.join(", ");
                            let pushes: String = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(\"{f}\".to_string(), ::serde::Serialize::to_value({f})),"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Object(vec![{pushes}]))]),"
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_named_ctor(path: &str, fields: &[String], source: &str, ty: &str) -> String {
    let inits: String = fields
        .iter()
        .map(|f| {
            format!(
                "{f}: ::serde::Deserialize::from_value(::serde::value::field({source}, \"{f}\", \"{ty}\")?)?,"
            )
        })
        .collect();
    format!("{path} {{ {inits} }}")
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let ctor = gen_named_ctor(name, fields, "pairs", name);
            format!(
                "let pairs = v.as_object().ok_or_else(|| ::serde::DeError::expected(\"object\", \"{name}\"))?;\n\
                 Ok({ctor})"
            )
        }
        Shape::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Shape::TupleStruct(n) => {
            let items: String = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                .collect();
            format!(
                "let items = v.as_array().ok_or_else(|| ::serde::DeError::expected(\"array\", \"{name}\"))?;\n\
                 if items.len() != {n} {{ return Err(::serde::DeError::expected(\"{n}-element array\", \"{name}\")); }}\n\
                 Ok({name}({items}))"
            )
        }
        Shape::UnitStruct => format!("Ok({name})"),
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| format!("\"{0}\" => Ok({name}::{0}),", v.name))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => None,
                        VariantShape::Tuple(1) => Some(format!(
                            "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                        )),
                        VariantShape::Tuple(n) => {
                            let items: String = (0..*n)
                                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{\n\
                                     let items = inner.as_array().ok_or_else(|| ::serde::DeError::expected(\"array\", \"{name}::{vn}\"))?;\n\
                                     if items.len() != {n} {{ return Err(::serde::DeError::expected(\"{n}-element array\", \"{name}::{vn}\")); }}\n\
                                     Ok({name}::{vn}({items}))\n\
                                 }}"
                            ))
                        }
                        VariantShape::Named(fields) => {
                            let ctor = gen_named_ctor(
                                &format!("{name}::{vn}"),
                                fields,
                                "pairs",
                                &format!("{name}::{vn}"),
                            );
                            Some(format!(
                                "\"{vn}\" => {{\n\
                                     let pairs = inner.as_object().ok_or_else(|| ::serde::DeError::expected(\"object\", \"{name}::{vn}\"))?;\n\
                                     Ok({ctor})\n\
                                 }}"
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match v {{\n\
                     ::serde::Value::Str(s) => match s.as_str() {{\n\
                         {unit_arms}\n\
                         other => Err(::serde::DeError(format!(\"unknown {name} variant {{other:?}}\"))),\n\
                     }},\n\
                     ::serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
                         let (tag, inner) = &pairs[0];\n\
                         let _ = inner;\n\
                         match tag.as_str() {{\n\
                             {data_arms}\n\
                             other => Err(::serde::DeError(format!(\"unknown {name} variant {{other:?}}\"))),\n\
                         }}\n\
                     }}\n\
                     _ => Err(::serde::DeError::expected(\"string or single-key object\", \"{name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
