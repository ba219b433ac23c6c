//! No-op derive macros standing in for `serde_derive` in offline builds.
//!
//! The workspace annotates types with `#[derive(Serialize, Deserialize)]`
//! so they are serde-ready when the real dependency is available, but all
//! actual serialization in this repository goes through the hand-rolled
//! writer in `dftmsn-metrics::json`. These derives accept the same syntax
//! (including `#[serde(...)]` helper attributes) and expand to nothing,
//! which keeps the annotations compiling in a network-less container.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// Accepts `#[derive(Serialize)]` and expands to nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts `#[derive(Deserialize)]` and expands to nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
