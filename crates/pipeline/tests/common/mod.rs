//! Helpers shared by the wire round-trip property tests.

use cnfet_pipeline::Json;

/// Every wire form of a tagged value, from its normal form (a bare kind
/// name or a `kind` object): the `kind` object, the nested single-key
/// object and, for a kind without parameters, the bare name.
pub fn three_forms(normal: &Json) -> Vec<Json> {
    let (kind, params) = match normal {
        Json::Str(kind) => (kind.clone(), Vec::new()),
        Json::Obj(fields) => (
            normal
                .get("kind")
                .and_then(Json::as_str)
                .expect("a kind")
                .to_string(),
            fields
                .iter()
                .filter(|(k, _)| k != "kind")
                .cloned()
                .collect(),
        ),
        other => panic!("not a tagged normal form: {other:?}"),
    };
    let mut tagged = vec![("kind".to_string(), Json::Str(kind.clone()))];
    tagged.extend(params.iter().cloned());
    let mut forms = vec![
        Json::Obj(tagged),
        Json::Obj(vec![(kind.clone(), Json::Obj(params.clone()))]),
    ];
    if params.is_empty() {
        forms.push(Json::Str(kind));
    }
    forms
}
