#ifndef NIMBLE_ALGEBRA_CONSTRUCT_H_
#define NIMBLE_ALGEBRA_CONSTRUCT_H_

#include "algebra/operators.h"
#include "algebra/tuple.h"
#include "common/result.h"
#include "xml/node.h"
#include "xmlql/ast.h"

namespace nimble {
namespace algebra {

/// Instantiates a CONSTRUCT template for one binding tuple. Scalar
/// variables become typed text; node-valued bindings are deep-cloned into
/// place (ELEMENT_AS re-publication).
Result<NodePtr> InstantiateTemplate(const xmlql::TemplateNode& tmpl,
                                    const TupleSchema& schema,
                                    const Tuple& tuple);

/// Opens and drains `plan` batch-at-a-time, instantiating the template per
/// row under `root`, then closes it. This is the top of every physical
/// plan. Returns the number of rows drained.
Result<size_t> ConstructResult(Operator* plan, const xmlql::TemplateNode& tmpl,
                               Node* root);

}  // namespace algebra
}  // namespace nimble

#endif  // NIMBLE_ALGEBRA_CONSTRUCT_H_
